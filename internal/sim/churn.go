package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"bwcluster/internal/cluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
)

// ChurnConfig parameterizes the churn experiment: a prediction tree and
// its overlay live through epochs of Poisson-distributed joins and
// leaves at a sweep of turnover rates, repairing incrementally
// (predtree.Tree.Remove/Add + overlay.Resync) instead of rebuilding.
// Each rate cell measures repair cost (gossip rounds and messages per
// epoch, against a from-scratch rebuild baseline), query quality on the
// churned framework (WPR/RR against the ground-truth bandwidth), and
// that the incrementally repaired overlay still reaches exactly the
// from-scratch fixed point.
type ChurnConfig struct {
	Dataset Dataset
	// N is the live membership the experiment tries to hold (0: 32).
	// The host pool is twice that, so joiners are drawn from hosts with
	// real ground-truth bandwidth rows; departed hosts can rejoin.
	N int
	// Rates are the per-epoch turnover fractions to sweep: at rate r,
	// joins and leaves each arrive Poisson(r*N/2), so (joins+leaves)/N
	// averages r (nil: 0.1, 0.2, 0.3, 0.5 — the 10-50% band).
	Rates []float64
	// Epochs is the churn epoch count per rate cell.
	Epochs int
	// Queries is the per-epoch decentralized query count.
	Queries int
	NCut    int
	BSteps  int
	C       float64
	Seed    int64
}

// DefaultChurnConfig returns the churn sweep recorded in
// results/churn_series.txt.
func DefaultChurnConfig(ds Dataset) ChurnConfig {
	return ChurnConfig{
		Dataset: ds,
		N:       32,
		Rates:   []float64{0.1, 0.2, 0.3, 0.5},
		Epochs:  6,
		Queries: 40,
		NCut:    overlay.DefaultNCut,
		BSteps:  7,
		C:       metric.DefaultC,
		Seed:    13,
	}
}

// Scaled returns a copy with the per-epoch query count multiplied by f.
func (c ChurnConfig) Scaled(f float64) ChurnConfig {
	c.Queries = scaleInt(c.Queries, f)
	return c
}

// ChurnPoint is one turnover-rate cell of the churn sweep.
type ChurnPoint struct {
	// Rate is the configured per-epoch turnover fraction.
	Rate float64
	// Joins and Leaves count the membership events actually drawn over
	// the cell's epochs.
	Joins  int
	Leaves int
	// RepairRounds is the mean gossip rounds per epoch the incremental
	// repair needed to re-converge.
	RepairRounds float64
	// RepairMsgs is the mean overlay messages per epoch spent
	// re-converging after incremental repair.
	RepairMsgs float64
	// RebuildMsgs is the mean overlay messages a from-scratch rebuild
	// of the same post-churn overlay spends converging — the baseline
	// the incremental path is up against.
	RebuildMsgs float64
	// MeasIncremental is the mean new tree measurements per epoch the
	// incremental joins needed; MeasRebuild is what rebuilding the tree
	// from scratch over the same survivors would have measured.
	MeasIncremental float64
	MeasRebuild     float64
	// RR and WPR are the return rate and wrong-pair rate of
	// decentralized queries on the churned framework, against the
	// ground-truth bandwidth.
	RR  float64
	WPR float64
	// StaleRejects counts pre-epoch cluster indexes that refused a
	// post-epoch query via the membership-epoch guard; every epoch with
	// churn should contribute one.
	StaleRejects int
	// FixedPoint reports whether the final incrementally repaired
	// overlay state equals a from-scratch build's fixed point exactly.
	FixedPoint bool
}

// ChurnResult is the churn measurement sweep.
type ChurnResult struct {
	Dataset Dataset
	N       int
	K       int
	Points  []ChurnPoint
}

// Blocks renders the churn sweep: repair vs rebuild cost per turnover
// rate.
func (r *ChurnResult) Blocks() Series {
	b := Block{
		Comments: []string{
			fmt.Sprintf("churn series (%s, n=%d, k=%d): Poisson join/leave with incremental tree + overlay repair", r.Dataset, r.N, r.K),
			"msgs/meas columns are per-epoch means; rebuild columns are the from-scratch baselines",
		},
		Columns: []Column{col("rate", 7, ".2f"), col("joins", 6, "d"), col("leaves", 7, "d"),
			col("rounds", 8, ".1f"), col("repair.msg", 11, ".1f"), col("rebuild.msg", 12, ".1f"),
			col("meas.incr", 10, ".1f"), col("meas.rebld", 12, ".1f"), col("RR", 7, ".3f"),
			col("WPR", 8, ".4f"), col("stale", 7, "d"), col("fixed", 6, "v")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.Rate, p.Joins, p.Leaves, p.RepairRounds, p.RepairMsgs, p.RebuildMsgs,
			p.MeasIncremental, p.MeasRebuild, p.RR, p.WPR, p.StaleRejects, p.FixedPoint})
	}
	return Series{b}
}

// poisson draws a Poisson(lambda) variate from rng (Knuth's product
// method; lambdas here are tiny).
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// RunChurn sweeps turnover rates. Every cell starts from the same seed:
// a pool of 2N hosts with ground-truth bandwidth, a prediction tree
// built over a random N of them, and its converged overlay; then Epochs
// rounds of Poisson joins/leaves are applied with incremental repair and
// measured.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	dsCfg, err := cfg.Dataset.Config()
	if err != nil {
		return nil, err
	}
	k, bLo, bHi, err := cfg.Dataset.Band()
	if err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		cfg.N = 32
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0.1, 0.2, 0.3, 0.5}
	}
	if cfg.Epochs < 1 || cfg.Queries < 1 || cfg.BSteps < 1 {
		return nil, fmt.Errorf("sim: churn needs positive Epochs, Queries and BSteps")
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}
	if cfg.NCut == 0 {
		cfg.NCut = overlay.DefaultNCut
	}
	pool := 2 * cfg.N

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	topo, err := dataset.NewTopology(dsCfg.WithN(pool), dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: churn topology: %w", err)
	}
	bw, err := topo.Matrix(dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: churn dataset: %w", err)
	}
	realDist, err := metric.DistanceFromBandwidth(bw, cfg.C)
	if err != nil {
		return nil, fmt.Errorf("sim: churn transform: %w", err)
	}
	bValues := linspace(bLo, bHi, cfg.BSteps)
	classes, err := overlay.ClassesFromBandwidths(bValues, cfg.C)
	if err != nil {
		return nil, err
	}
	ovCfg := overlay.Config{NCut: cfg.NCut, Classes: classes}

	out := &ChurnResult{Dataset: cfg.Dataset, N: cfg.N, K: k}
	for cell, rate := range cfg.Rates {
		pt, err := runChurnCell(cfg, rate, int64(cell), bw, realDist, ovCfg, k, bValues)
		if err != nil {
			return nil, fmt.Errorf("sim: churn rate=%v: %w", rate, err)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// runChurnCell lives through cfg.Epochs churn epochs at one turnover
// rate and aggregates the cell's measurements.
func runChurnCell(cfg ChurnConfig, rate float64, cell int64, bw, realDist *metric.Matrix,
	ovCfg overlay.Config, k int, bValues []float64) (ChurnPoint, error) {
	pt := ChurnPoint{Rate: rate}
	rng := rand.New(rand.NewSource(cfg.Seed + 100 + 1000*cell))
	perm := rng.Perm(realDist.N())
	alive := append([]int(nil), perm[:cfg.N]...)
	standby := append([]int(nil), perm[cfg.N:]...)

	tree, err := predtree.Build(realDist, cfg.C, predtree.SearchAnchor,
		append([]int(nil), alive...))
	if err != nil {
		return pt, err
	}
	nw, err := overlay.NewNetwork(tree, ovCfg)
	if err != nil {
		return pt, err
	}
	if _, err := nw.Converge(0); err != nil {
		return pt, err
	}

	minAlive := k + 2
	var rr RateAccumulator
	var wpr WPRAccumulator
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Tag a cluster index with the pre-epoch membership epoch; churn
		// below must invalidate it.
		distM, _ := tree.DistMatrix()
		ix, err := cluster.NewIndexParallelAt(distM, 1, tree.Epoch())
		if err != nil {
			return pt, err
		}

		lambda := rate * float64(len(alive)) / 2
		leaves := poisson(rng, lambda)
		joins := poisson(rng, lambda)
		if max := len(alive) - minAlive; leaves > max {
			leaves = max
		}
		if len(standby) < joins {
			joins = len(standby)
		}
		measBefore := tree.Measurements()
		for i := 0; i < leaves; i++ {
			vi := rng.Intn(len(alive))
			victim := alive[vi]
			alive[vi] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			standby = append(standby, victim)
			if err := tree.Remove(victim); err != nil {
				return pt, err
			}
		}
		for i := 0; i < joins; i++ {
			joiner := standby[0]
			standby = standby[1:]
			alive = append(alive, joiner)
			if err := tree.Add(joiner, realDist); err != nil {
				return pt, err
			}
		}
		pt.Leaves += leaves
		pt.Joins += joins
		pt.MeasIncremental += float64(tree.Measurements() - measBefore)

		// Incremental repair: resync the overlay to the repaired tree and
		// re-converge, counting what it cost.
		msgs0 := nw.Stats().Messages()
		nw.Resync()
		rounds, err := nw.Converge(0)
		if err != nil {
			return pt, err
		}
		pt.RepairRounds += float64(rounds)
		pt.RepairMsgs += float64(nw.Stats().Messages() - msgs0)

		// Rebuild baselines over the same survivors: the overlay from
		// scratch (messages) and the tree from scratch (measurements).
		fresh, err := overlay.NewNetwork(tree, ovCfg)
		if err != nil {
			return pt, err
		}
		if _, err := fresh.Converge(0); err != nil {
			return pt, err
		}
		pt.RebuildMsgs += float64(fresh.Stats().Messages())
		rebuilt, err := predtree.Build(realDist, cfg.C, predtree.SearchAnchor,
			append([]int(nil), alive...))
		if err != nil {
			return pt, err
		}
		pt.MeasRebuild += float64(rebuilt.Measurements())

		// The pre-epoch index must refuse to answer at the post-churn
		// membership epoch.
		if leaves+joins > 0 {
			b := bValues[rng.Intn(len(bValues))]
			l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
			if err != nil {
				return pt, err
			}
			if _, err := ix.FindAt(tree.Epoch(), k, l); errors.Is(err, cluster.ErrStaleIndex) {
				pt.StaleRejects++
			} else {
				return pt, fmt.Errorf("epoch %d: pre-churn index answered at post-churn epoch (err=%v)", epoch, err)
			}
		}

		// Query quality on the churned framework.
		for q := 0; q < cfg.Queries; q++ {
			b := bValues[rng.Intn(len(bValues))]
			l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
			if err != nil {
				return pt, err
			}
			start := alive[rng.Intn(len(alive))]
			res, err := nw.Query(start, k, l)
			if err != nil {
				return pt, err
			}
			rr.Add(res.Found())
			if res.Found() {
				wpr.Add(bw, res.Cluster, b)
			}
		}
	}
	ep := float64(cfg.Epochs)
	pt.RepairRounds /= ep
	pt.RepairMsgs /= ep
	pt.RebuildMsgs /= ep
	pt.MeasIncremental /= ep
	pt.MeasRebuild /= ep
	pt.RR = rr.Value()
	pt.WPR = wpr.Value()

	// The incrementally repaired overlay must sit at exactly the fixed
	// point a from-scratch build reaches.
	final, err := overlay.NewNetwork(tree, ovCfg)
	if err != nil {
		return pt, err
	}
	if _, err := final.Converge(0); err != nil {
		return pt, err
	}
	pt.FixedPoint = networksEqual(final, nw)
	return pt, nil
}

// networksEqual reports whether two synchronous overlays hold identical
// gossip state (selfCRT, per-neighbor aggregated node info and CRT).
func networksEqual(a, b *overlay.Network) bool {
	ah, bh := a.Hosts(), b.Hosts()
	if len(ah) != len(bh) {
		return false
	}
	for _, x := range ah {
		if !slices.Equal(a.SelfCRT(x), b.SelfCRT(x)) {
			return false
		}
		if !slices.Equal(a.Neighbors(x), b.Neighbors(x)) {
			return false
		}
		for _, m := range a.Neighbors(x) {
			if !slices.Equal(a.AggrNode(x, m), b.AggrNode(x, m)) {
				return false
			}
			if !slices.Equal(a.CRT(x, m), b.CRT(x, m)) {
				return false
			}
		}
	}
	return true
}
