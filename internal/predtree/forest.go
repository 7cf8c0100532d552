package predtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bwcluster/internal/metric"
)

// defaultWorkers is the pool size when the caller does not pin one:
// GOMAXPROCS, so `go test -cpu` and container CPU limits are respected.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Forest is a set of prediction trees over the same hosts, built with
// different (random) insertion orders, predicting with the median of the
// per-tree distances. Sequoia introduced this technique: single-tree
// embeddings carry placement noise from unlucky insertion orders, and the
// entrywise median of a few independent trees cancels most of it. The
// first tree is the primary: its anchor tree is the overlay the
// clustering protocol runs on (each host simply keeps one distance label
// per tree).
type Forest struct {
	trees []*Tree
}

// BuildForest builds count trees from the oracle, each with an
// independent random insertion order drawn from rng.
func BuildForest(o Oracle, c float64, mode SearchMode, count int, rng *rand.Rand) (*Forest, error) {
	if count < 1 {
		return nil, fmt.Errorf("predtree: forest needs at least 1 tree, got %d", count)
	}
	if rng == nil {
		return nil, fmt.Errorf("predtree: forest needs a non-nil rng")
	}
	trees := make([]*Tree, 0, count)
	for i := 0; i < count; i++ {
		order := rng.Perm(o.N())
		t, err := Build(o, c, mode, order)
		if err != nil {
			return nil, fmt.Errorf("predtree: forest tree %d: %w", i, err)
		}
		trees = append(trees, t)
	}
	return &Forest{trees: trees}, nil
}

// BuildForestParallel builds exactly the forest BuildForest builds, with
// the per-tree constructions running concurrently on a pool of workers
// (workers < 1 means one per CPU). Determinism is preserved by splitting
// the random stream BEFORE spawning: all insertion orders are drawn from
// rng sequentially — consuming its stream precisely as the sequential
// build does — and each goroutine then runs the fully deterministic
// insertion for its pre-drawn order. The result is bit-identical to
// BuildForest with the same rng state, whatever the worker count, and rng
// ends in the same state either way.
//
// o must be safe for concurrent Dist calls (metric.Matrix, being
// immutable after construction, is).
func BuildForestParallel(o Oracle, c float64, mode SearchMode, count int, rng *rand.Rand, workers int) (*Forest, error) {
	if count < 1 {
		return nil, fmt.Errorf("predtree: forest needs at least 1 tree, got %d", count)
	}
	if rng == nil {
		return nil, fmt.Errorf("predtree: forest needs a non-nil rng")
	}
	if workers < 1 {
		workers = defaultWorkers()
	}
	if workers > count {
		workers = count
	}
	if workers == 1 {
		return BuildForest(o, c, mode, count, rng)
	}
	orders := make([][]int, count)
	for i := range orders {
		orders[i] = rng.Perm(o.N())
	}
	trees := make([]*Tree, count)
	errs := make([]error, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				t, err := Build(o, c, mode, orders[i])
				if err != nil {
					errs[i] = err
					continue
				}
				trees[i] = t
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("predtree: forest tree %d: %w", i, err)
		}
	}
	return &Forest{trees: trees}, nil
}

// NewForest assembles a forest from pre-built trees (they must hold the
// same host set; the first is the primary).
func NewForest(trees ...*Tree) (*Forest, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("predtree: forest needs at least 1 tree")
	}
	n := trees[0].Len()
	for i, t := range trees {
		if t == nil {
			return nil, fmt.Errorf("predtree: forest tree %d is nil", i)
		}
		if t.Len() != n {
			return nil, fmt.Errorf("predtree: forest tree %d has %d hosts, want %d", i, t.Len(), n)
		}
		for _, h := range trees[0].Hosts() {
			if !t.Contains(h) {
				return nil, fmt.Errorf("predtree: forest tree %d missing host %d", i, h)
			}
		}
	}
	return &Forest{trees: trees}, nil
}

// Primary returns the first tree, whose anchor tree serves as the
// overlay.
func (f *Forest) Primary() *Tree { return f.trees[0] }

// Size reports the number of trees.
func (f *Forest) Size() int { return len(f.trees) }

// Len reports the number of hosts.
func (f *Forest) Len() int { return f.trees[0].Len() }

// Hosts returns the hosts in the primary tree's insertion order.
func (f *Forest) Hosts() []int { return f.trees[0].Hosts() }

// Contains reports whether host h is embedded.
func (f *Forest) Contains(h int) bool { return f.trees[0].Contains(h) }

// AnchorNeighbors returns h's neighbors on the primary anchor tree.
func (f *Forest) AnchorNeighbors(h int) []int { return f.trees[0].AnchorNeighbors(h) }

// Measurements sums the construction measurement lookups across trees.
func (f *Forest) Measurements() int {
	total := 0
	for _, t := range f.trees {
		total += t.Measurements()
	}
	return total
}

// DistinctMeasurements reports how many distinct host pairs the whole
// forest measured: hosts cache measurement results, so a pair probed by
// several trees costs one network measurement.
func (f *Forest) DistinctMeasurements() int {
	union := make(map[int64]struct{})
	for _, t := range f.trees {
		t.eachMeasuredPair(func(lo, hi int) {
			union[int64(lo)<<32|int64(hi)] = struct{}{}
		})
	}
	return len(union)
}

// Add inserts host h into every tree.
func (f *Forest) Add(h int, o Oracle) error {
	for i, t := range f.trees {
		if err := t.Add(h, o); err != nil {
			return fmt.Errorf("predtree: forest tree %d: %w", i, err)
		}
	}
	return nil
}

// Remove evicts host h from every tree, repairing each incrementally
// (see Tree.Remove). Like Add it mutates and must not race with reads.
func (f *Forest) Remove(h int) error {
	if !f.Contains(h) {
		return fmt.Errorf("predtree: forest remove: host %d not present", h)
	}
	for i, t := range f.trees {
		if err := t.Remove(h); err != nil {
			return fmt.Errorf("predtree: forest tree %d: %w", i, err)
		}
	}
	return nil
}

// Epoch reports the primary tree's membership epoch; every tree in the
// forest sees the same Add/Remove sequence, so the primary's counter
// stands for the whole forest.
func (f *Forest) Epoch() uint64 { return f.trees[0].Epoch() }

// SetEpoch re-seats every tree's membership epoch counter, restoring
// epoch continuity for a forest decoded from a snapshot (the tree wire
// format does not carry the counter). See Tree.SetEpoch.
func (f *Forest) SetEpoch(epoch uint64) {
	for _, t := range f.trees {
		t.SetEpoch(epoch)
	}
}

// Dist returns the median of the per-tree predicted distances.
func (f *Forest) Dist(u, v int) float64 {
	if len(f.trees) == 1 {
		return f.trees[0].Dist(u, v)
	}
	ds := make([]float64, len(f.trees))
	for i, t := range f.trees {
		ds[i] = t.Dist(u, v)
	}
	return median(ds)
}

// PredictBandwidth returns C / Dist(u, v) using the primary tree's
// constant.
func (f *Forest) PredictBandwidth(u, v int) float64 {
	d := f.Dist(u, v)
	if d == 0 {
		return f.trees[0].C() / 1e-9
	}
	return f.trees[0].C() / d
}

// DistMatrix materializes the median predicted distances for all hosts,
// indexed like the returned host slice (the primary tree's join order).
func (f *Forest) DistMatrix() (*metric.Matrix, []int) {
	hosts := f.Hosts()
	m := metric.NewMatrix(len(hosts))
	f.FillDist(m, joinRows(f.trees[0].hostCap(), hosts))
	return m, hosts
}

// Labels returns host h's distance label in every tree of the forest —
// the complete "coordinate" a host gossips so that any peer can compute
// median-of-trees distances locally via ForestLabelDist.
func (f *Forest) Labels(h int) ([]Label, error) {
	out := make([]Label, len(f.trees))
	for i, t := range f.trees {
		label, err := t.Label(h)
		if err != nil {
			return nil, fmt.Errorf("predtree: forest label (tree %d): %w", i, err)
		}
		out[i] = label
	}
	return out, nil
}

// ForestLabelDist computes the median-of-trees predicted distance between
// two hosts from their label sets alone. The label sets must come from
// the same forest (same length, tree by tree).
func ForestLabelDist(a, b []Label) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, fmt.Errorf("predtree: label sets must be non-empty and equal length (%d vs %d)",
			len(a), len(b))
	}
	ds := make([]float64, len(a))
	for i := range a {
		d, err := LabelDist(a[i], b[i])
		if err != nil {
			return 0, fmt.Errorf("predtree: forest label dist (tree %d): %w", i, err)
		}
		ds[i] = d
	}
	return median(ds), nil
}

// median returns the median of xs (averaging the middle pair for even
// lengths), sorting xs in place: callers pass a scratch slice.
func median(xs []float64) float64 {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
