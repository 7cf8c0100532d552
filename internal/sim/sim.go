// Package sim is the experiment harness that regenerates the paper's
// evaluation (Figures 3-6). It wires the substrates together — synthetic
// datasets, the prediction-tree framework, the decentralized overlay, and
// the Vivaldi/k-diameter Euclidean baseline — into per-figure runners with
// deterministic seeding, and computes the paper's metrics (WPR, RR,
// relative prediction error, routing hops).
package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/cluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/kdiam"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/vivaldi"
)

// Approach identifies one of the compared systems, named as in the paper
// (the dataset prefix is implied by context).
type Approach string

const (
	// TreeCentral is Algorithm 1 run centrally on the prediction-tree
	// bandwidth estimates (HP/UMD-TREE-CENTRAL).
	TreeCentral Approach = "TREE-CENTRAL"
	// TreeDecentral is the full decentralized protocol
	// (HP/UMD-TREE-DECENTRAL).
	TreeDecentral Approach = "TREE-DECENTRAL"
	// EuclCentral is the comparison model: Vivaldi 2-d embedding plus the
	// k-diameter algorithm (HP/UMD-EUCL-CENTRAL).
	EuclCentral Approach = "EUCL-CENTRAL"
)

// Dataset selects one of the two evaluation datasets.
type Dataset string

const (
	// HP is the 190-node HP-PlanetLab-like dataset.
	HP Dataset = "HP"
	// UMD is the 317-node UMD-PlanetLab-like dataset.
	UMD Dataset = "UMD"
)

// Config returns the generator configuration for the dataset.
func (d Dataset) Config() (dataset.Config, error) {
	switch d {
	case HP:
		return dataset.HPConfig(), nil
	case UMD:
		return dataset.UMDConfig(), nil
	default:
		return dataset.Config{}, fmt.Errorf("sim: unknown dataset %q", d)
	}
}

// Band returns the paper's query bandwidth band and size constraint for
// the dataset (HP: k=10, b in 15-75; UMD: k=16, b in 30-110).
func (d Dataset) Band() (k int, bLo, bHi float64, err error) {
	switch d {
	case HP:
		return 10, 15, 75, nil
	case UMD:
		return 16, 30, 110, nil
	default:
		return 0, 0, 0, fmt.Errorf("sim: unknown dataset %q", d)
	}
}

// DefaultTrees is the default prediction-forest size. Three trees with
// median prediction cancel most single-tree placement noise (Sequoia's
// multi-tree heuristic) at triple the construction cost.
const DefaultTrees = 3

// FrameworkConfig controls which prediction frameworks a Framework builds.
type FrameworkConfig struct {
	// C is the rational-transform constant.
	C float64
	// Search selects the prediction-tree end-node search mode.
	Search predtree.SearchMode
	// Trees is the prediction-forest size (0: DefaultTrees).
	Trees int
	// NCut and Classes configure the decentralized overlay; the overlay is
	// only built when Classes is non-empty.
	NCut    int
	Classes []float64
	// Euclid builds the Vivaldi embedding and its k-diameter index.
	Euclid bool
	// Vivaldi overrides the embedding parameters (zero value: defaults).
	Vivaldi vivaldi.Config
	// Parallelism bounds the worker pool for forest construction and
	// index precomputation (0: one worker per CPU, 1: sequential).
	// Parallelism never changes results.
	Parallelism int
}

// Framework bundles everything one simulation round (one seed) needs: the
// ground-truth bandwidth, the tree-metric prediction framework, and
// optionally the decentralized overlay and the Euclidean baseline.
type Framework struct {
	C        float64
	BW       *metric.Matrix // ground truth bandwidth (Mbps)
	RealDist *metric.Matrix // rational transform of BW
	Forest   *predtree.Forest
	PredDist *metric.Matrix // predicted (median) distances: dist's matrix
	TreeIdx  *cluster.Index // Algorithm 1 index over PredDist
	Net      *overlay.Network
	Emb      *vivaldi.Embedding
	EuclIdx  *kdiam.Index

	dist *overlay.Dist // the one snapshot Net and the async runtimes read
}

// BuildFramework constructs the frameworks for one round: hosts join the
// prediction tree in a random order drawn from rng (this is what differs
// between the paper's "10 different frameworks with different random
// seeds").
func BuildFramework(bw *metric.Matrix, cfg FrameworkConfig, rng *rand.Rand) (*Framework, error) {
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}
	if cfg.Search == 0 {
		cfg.Search = predtree.SearchAnchor
	}
	if cfg.NCut == 0 {
		cfg.NCut = overlay.DefaultNCut
	}
	if cfg.Trees == 0 {
		cfg.Trees = DefaultTrees
	}
	if rng == nil {
		return nil, fmt.Errorf("sim: nil rng")
	}
	realDist, err := metric.DistanceFromBandwidth(bw, cfg.C)
	if err != nil {
		return nil, fmt.Errorf("sim: transform bandwidth: %w", err)
	}
	forest, err := predtree.BuildForestParallel(realDist, cfg.C, cfg.Search, cfg.Trees, rng, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("sim: build prediction forest: %w", err)
	}
	dist := overlay.NewDist(forest, bw.N())
	f := &Framework{C: cfg.C, BW: bw, RealDist: realDist, Forest: forest, PredDist: dist.Matrix(), dist: dist}
	if f.TreeIdx, err = cluster.NewIndexParallelAt(f.PredDist, cfg.Parallelism, forest.Epoch()); err != nil {
		return nil, fmt.Errorf("sim: tree cluster index: %w", err)
	}

	if len(cfg.Classes) > 0 {
		net, err := overlay.NewNetworkOver(forest, dist, overlay.Config{NCut: cfg.NCut, Classes: cfg.Classes})
		if err != nil {
			return nil, fmt.Errorf("sim: overlay: %w", err)
		}
		if _, err := net.Converge(0); err != nil {
			return nil, fmt.Errorf("sim: overlay converge: %w", err)
		}
		f.Net = net
	}

	if cfg.Euclid {
		vcfg := cfg.Vivaldi
		if vcfg == (vivaldi.Config{}) {
			vcfg = vivaldi.DefaultConfig()
		}
		emb, err := vivaldi.Embed(realDist, vcfg, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: vivaldi embed: %w", err)
		}
		f.Emb = emb
		pts := make([]kdiam.Point, emb.N())
		for i := range pts {
			c := emb.Coord(i)
			pts[i] = kdiam.Point{X: c.X, Y: c.Y}
		}
		f.EuclIdx = kdiam.NewIndex(pts)
	}
	return f, nil
}

// PredictedBandwidth returns the tree framework's bandwidth estimate for a
// host pair.
func (f *Framework) PredictedBandwidth(u, v int) float64 {
	d := f.PredDist.Dist(u, v)
	if d <= 0 {
		return f.C / 1e-9
	}
	return f.C / d
}

// EuclideanBandwidth returns the Vivaldi baseline's bandwidth estimate.
func (f *Framework) EuclideanBandwidth(u, v int) (float64, error) {
	if f.Emb == nil {
		return 0, fmt.Errorf("sim: framework built without the Euclidean baseline")
	}
	d := f.Emb.Dist(u, v)
	if d <= 0 {
		return f.C / 1e-9, nil
	}
	return f.C / d, nil
}

// linspace returns n evenly spaced values from lo to hi inclusive.
func linspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
