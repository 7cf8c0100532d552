package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bwcluster"
	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/stats"
)

// directSample is how many central answers per matrix are also checked
// against cluster.FindCluster, the direct O(n^3) Algorithm 1 with no index
// or memo. Every query of the central mix is feasible at n = 512, so the
// direct scan stops early: about 27 µs per answer, 0.1 s per matrix.
const directSample = 4096

// checkMembers reports why members cannot answer a query for k hosts
// out of n: the wrong size, or a repeated or out-of-range host.
func checkMembers(members []int, k, n int) error {
	if len(members) != k {
		return fmt.Errorf("%d members, want %d", len(members), k)
	}
	seen := make(map[int]bool, k)
	for _, h := range members {
		if h < 0 || h >= n || seen[h] {
			return fmt.Errorf("member %d repeated or out of range", h)
		}
		seen[h] = true
	}
	return nil
}

// belowB reports whether some member pair is predicted below b Mbps.
// Algorithm 1 bounds a cluster's diameter by d(p, q) only in a tree
// metric, and the forest's median prediction is just close to one, so a
// correct answer can hold such a pair; runs report the share as a fact.
func belowB(sys *bwcluster.System, members []int, b float64) bool {
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			if bw, err := sys.PredictBandwidth(members[i], members[j]); err != nil || bw < b {
				return true
			}
		}
	}
	return false
}

// checkNone confirms a nil answer: no cluster of k hosts may exist at b.
func checkNone(sys *bwcluster.System, k int, b float64) error {
	max, err := sys.MaxClusterSize(b)
	if err != nil {
		return err
	}
	if max >= k {
		return fmt.Errorf("no answer, but MaxClusterSize(%.6g) = %d >= k = %d", b, max, k)
	}
	return nil
}

// oracle answers queries independently of the system under test: over
// the construction pipeline rebuilt module call by module call from the
// same inputs (see rebuild), whose predictions verify checks are
// bit-identical to the system's, and over the benchmark's own Algorithm 1
// on those predictions.
type oracle struct {
	sys  *bwcluster.System
	pipe *pipeline
	alg  *alg1
}

// central checks one central answer: a well-formed cluster or a nil
// confirmed by MaxClusterSize, equal to the benchmark's own Algorithm 1
// over the rebuilt prediction.
func (o *oracle) central(k int, b float64, got []int) error {
	if got == nil {
		if err := checkNone(o.sys, k, b); err != nil {
			return err
		}
	} else if err := checkMembers(got, k, o.sys.Len()); err != nil {
		return err
	}
	l, err := metric.DistanceForBandwidthConstraint(b, constant)
	if err != nil {
		return err
	}
	if want := o.alg.find(k, l); !slices.Equal(got, want) {
		return fmt.Errorf("answered %v, Algorithm 1 over the rebuilt prediction gives %v", got, want)
	}
	return nil
}

// direct checks a central answer against Algorithm 1 run straight over
// the rebuilt prediction matrix, with no index or memo in between.
func (o *oracle) direct(k int, b float64, got []int) error {
	l, err := metric.DistanceForBandwidthConstraint(b, constant)
	if err != nil {
		return err
	}
	want, err := cluster.FindCluster(o.pipe.pred, k, l)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("answered %v, direct Algorithm 1 gives %v", got, want)
	}
	return nil
}

// decentral checks one decentralized answer: when found, a well-formed
// cluster inside some pair's candidate set (see alg1.witness); and equal
// to Algorithm 4 over the rebuilt, converged overlay.
func (o *oracle) decentral(start, k int, b float64, got []int) error {
	l, err := metric.DistanceForBandwidthConstraint(b, constant)
	if err != nil {
		return err
	}
	if got != nil {
		if err := checkMembers(got, k, o.sys.Len()); err != nil {
			return err
		}
		if !o.alg.witness(got, l) {
			return fmt.Errorf("answered %v, but no host pair predicted within %.6g of each other has every member within their distance of both", got, l)
		}
	}
	want, err := o.pipe.net.Query(start, k, l)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want.Cluster) {
		return fmt.Errorf("answered %v, Algorithm 4 over the rebuilt overlay gives %v", got, want.Cluster)
	}
	return nil
}

// alg1 is the benchmark's own Algorithm 1 over a prediction matrix: the
// candidate-set size |S*pq| of every pair p < q, where S*pq holds every
// host within d(p,q) of both p and q, and over the pairs in ascending
// distance the largest size so far. It shares no code with the cluster
// package, so a change to cluster.Index's scan, tables or memo is checked
// against code the change does not touch.
type alg1 struct {
	n      int
	d      []float64 // predicted distances, row-major n x n
	sizes  []int32   // |S*pq| at p*n+q, p < q
	byDist []float64 // every pair's distance, ascending
	maxTo  []int32   // maxTo[i]: the largest |S*pq| over the pairs of byDist[:i+1]
}

func newAlg1(pred *metric.Matrix) *alg1 {
	n := pred.N()
	a := &alg1{n: n, d: make([]float64, n*n), sizes: make([]int32, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.d[i*n+j] = pred.Dist(i, j)
		}
	}
	checkAll(n, func(p int) error {
		for q := p + 1; q < n; q++ {
			a.sizes[p*n+q] = int32(len(a.members(p, q, n)))
		}
		return nil
	})
	type pair struct {
		d    float64
		size int32
	}
	pairs := make([]pair, 0, n*(n-1)/2)
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			pairs = append(pairs, pair{a.d[p*n+q], a.sizes[p*n+q]})
		}
	}
	slices.SortFunc(pairs, func(x, y pair) int { return cmp.Compare(x.d, y.d) })
	a.byDist = make([]float64, len(pairs))
	a.maxTo = make([]int32, len(pairs))
	var most int32
	for i, pr := range pairs {
		most = max(most, pr.size)
		a.byDist[i], a.maxTo[i] = pr.d, most
	}
	return a
}

// members returns the first limit hosts of S*pq in ascending order.
func (a *alg1) members(p, q, limit int) []int {
	n, dpq := a.n, a.d[p*a.n+q]
	var out []int
	for x := 0; x < n && len(out) < limit; x++ {
		if a.d[x*n+p] <= dpq && a.d[x*n+q] <= dpq {
			out = append(out, x)
		}
	}
	return out
}

// find answers a (k, l) query the way Algorithm 1 does: the first k hosts
// of S*pq for the lexicographically first pair with d(p,q) <= l and
// |S*pq| >= k, or nil when no pair within l has k candidates.
func (a *alg1) find(k int, l float64) []int {
	within := sort.Search(len(a.byDist), func(i int) bool { return a.byDist[i] > l })
	if within == 0 || int(a.maxTo[within-1]) < k {
		return nil
	}
	n := a.n
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			if int(a.sizes[p*n+q]) >= k && a.d[p*n+q] <= l {
				return a.members(p, q, k)
			}
		}
	}
	return nil
}

// witness reports whether members all lie in S*pq for some pair p < q
// with d(p,q) <= l: what any answer of Algorithm 1, global or run over one
// peer's local clustering space as Algorithm 4 does, satisfies in any
// metric. Each of p and q must be within l of every member, and a pair of
// such hosts qualifies when its distance is at most l and at least each
// one's farthest member.
func (a *alg1) witness(members []int, l float64) bool {
	n := a.n
	var cand []int
	far := make([]float64, n)
	for y := 0; y < n; y++ {
		for _, x := range members {
			far[y] = max(far[y], a.d[x*n+y])
		}
		if far[y] <= l {
			cand = append(cand, y)
		}
	}
	for i, p := range cand {
		for _, q := range cand[i+1:] {
			if d := a.d[p*n+q]; d <= l && far[p] <= d && far[q] <= d {
				return true
			}
		}
	}
	return false
}

// checkAll runs check(i) for every i in [0, n) on GOMAXPROCS goroutines
// and returns how many failed and the failure with the smallest index.
func checkAll(n int, check func(i int) error) (int64, error) {
	workers := runtime.GOMAXPROCS(0)
	var (
		mu       sync.Mutex
		failed   int64
		firstIdx = n
		first    error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := check(i); err != nil {
					mu.Lock()
					failed++
					if i < firstIdx {
						firstIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed, first
}

// checkCentral checks every central answer with the oracle, and a seeded
// sample of them against direct Algorithm 1, counting wrong ones as
// failed.
func checkCentral(rep *report, o *oracle, qs []query, ans [][]int, r *rand.Rand) tally {
	var empty, below atomic.Int64
	failed, first := checkAll(len(ans), func(i int) error {
		k, b := int(qs[i].k), qs[i].b
		if ans[i] == nil {
			empty.Add(1)
		} else if belowB(o.sys, ans[i], b) {
			below.Add(1)
		}
		if err := o.central(k, b, ans[i]); err != nil {
			return fmt.Errorf("query %d (k=%d b=%.6g): %w", i, k, b, err)
		}
		return nil
	})
	sample := r.Perm(len(ans))
	sample = sample[:min(directSample, len(sample))]
	sf, sfirst := checkAll(len(sample), func(j int) error {
		i := sample[j]
		if err := o.direct(int(qs[i].k), qs[i].b, ans[i]); err != nil {
			return fmt.Errorf("query %d (k=%d b=%.6g): %w", i, qs[i].k, qs[i].b, err)
		}
		return nil
	})
	if first == nil {
		first = sfirst
	}
	if failed += sf; failed > 0 {
		rep.fail(failed, "%d wrong central answers; first: %v", failed, first)
	}
	return tally{answers: int64(len(ans)), empty: empty.Load(), belowB: below.Load()}
}

// timing is one timed module call of the rebuilt construction pipeline,
// with the telemetry counters it moved.
type timing struct {
	name    string
	seconds float64
	delta   counters
}

// pipeline holds the products of bwcluster.New's module calls, repeated
// one by one from outside the facade.
type pipeline struct {
	classes []float64
	forest  *predtree.Forest
	pred    *metric.Matrix
	index   *cluster.Index
	net     *overlay.Network
	rounds  int
	phases  []timing
}

// rebuild repeats bwcluster.New(raw, WithSeed(seed)) module call by
// module call, in New's order, timing each: the metric transforms and the
// default bandwidth classes, the prediction forest, its distance matrix,
// the cluster index, and the overlay built and converged.
func rebuild(in *inputs) (*pipeline, error) {
	p := &pipeline{}
	workers := cluster.Workers(0, 0)
	step := func(name string, fn func() error) error {
		before := scrape()
		t0 := time.Now()
		err := fn()
		p.phases = append(p.phases, timing{name: name, seconds: time.Since(t0).Seconds(), delta: scrape().minus(before)})
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", name, err)
		}
		return nil
	}
	var bw, dist *metric.Matrix
	err := step("metric", func() error {
		var err error
		if bw, err = metric.Symmetrize(in.raw); err != nil {
			return err
		}
		if dist, err = metric.DistanceFromBandwidth(bw, constant); err != nil {
			return err
		}
		// New's default classes: the 10th..80th measured percentiles.
		vals := bw.Values()
		for pct := 10.0; pct <= 80; pct += 10 {
			v, err := stats.Percentile(vals, pct)
			if err != nil {
				return err
			}
			if v > 0 && (len(p.classes) == 0 || v > p.classes[len(p.classes)-1]) {
				p.classes = append(p.classes, v)
			}
		}
		sort.Float64s(p.classes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = step("predtree.build", func() error {
		var err error
		p.forest, err = predtree.BuildForestParallel(dist, constant, predtree.SearchAnchor, 3, rand.New(rand.NewSource(in.matrixSeed)), workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = step("predtree.dist_matrix", func() error {
		dm, hosts := p.forest.DistMatrix()
		p.pred = metric.NewMatrix(bw.N())
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				p.pred.Set(hosts[i], hosts[j], dm.Dist(i, j))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = step("cluster.index_build", func() error {
		var err error
		p.index, err = cluster.NewIndexParallelAt(p.pred, workers, p.forest.Epoch())
		return err
	})
	if err != nil {
		return nil, err
	}
	err = step("overlay.converge", func() error {
		distClasses, err := overlay.ClassesFromBandwidths(p.classes, constant)
		if err != nil {
			return err
		}
		if p.net, err = overlay.NewNetwork(p.forest, overlay.Config{NCut: overlay.DefaultNCut, Classes: distClasses}); err != nil {
			return err
		}
		p.rounds, err = p.net.Converge(0)
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// verify confirms the rebuilt pipeline is the system New built: the same
// bandwidth classes and, on a seeded sample of pairs, bit-identical
// predictions. A mismatch means New changed and rebuild must follow.
func (p *pipeline) verify(sys *bwcluster.System, r *rand.Rand) error {
	if !slices.Equal(p.classes, sys.Classes()) {
		return fmt.Errorf("rebuilt classes %v, system has %v", p.classes, sys.Classes())
	}
	n := sys.Len()
	for i := 0; i < 2000; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		got, err := sys.PredictBandwidth(u, v)
		if err != nil {
			return err
		}
		if want := constant / p.pred.Dist(u, v); got != want {
			return fmt.Errorf("pair (%d,%d): system predicts %v Mbps, rebuilt matrix %v", u, v, got, want)
		}
	}
	return nil
}
