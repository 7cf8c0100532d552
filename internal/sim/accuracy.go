package sim

import (
	"fmt"
	"math"
	"math/rand"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/stats"
)

// AccuracyConfig parameterizes the Fig. 3 experiment (clustering accuracy
// and bandwidth-prediction error, tree metric vs 2-d Euclidean).
type AccuracyConfig struct {
	Dataset Dataset
	// K is the cluster size constraint (0: the dataset's paper value).
	K int
	// BValues are the bandwidth constraints to sweep (nil: seven points
	// across the dataset's paper band).
	BValues []float64
	// QueriesPerB is how many decentralized queries each round submits per
	// bandwidth value.
	QueriesPerB int
	// Rounds is how many frameworks (seeds) to average over.
	Rounds int
	// NCut is the overlay propagation cutoff.
	NCut int
	// Trees overrides the prediction-forest size (0: DefaultTrees).
	Trees int
	// C is the rational-transform constant.
	C float64
	// Seed makes the whole experiment reproducible.
	Seed int64
	// CDFPoints caps the resolution of the error CDFs.
	CDFPoints int
}

// DefaultAccuracyConfig returns the paper-scale configuration: 1000
// queries per round split across the band, 10 rounds.
func DefaultAccuracyConfig(ds Dataset) AccuracyConfig {
	return AccuracyConfig{
		Dataset:     ds,
		QueriesPerB: 143, // ~1000 queries over 7 band points
		Rounds:      10,
		NCut:        overlay.DefaultNCut,
		C:           metric.DefaultC,
		Seed:        1,
		CDFPoints:   200,
	}
}

// Scaled returns a copy with rounds and query counts multiplied by f
// (floored at 1), for quick runs.
func (c AccuracyConfig) Scaled(f float64) AccuracyConfig {
	c.Rounds = scaleInt(c.Rounds, f)
	c.QueriesPerB = scaleInt(c.QueriesPerB, f)
	return c
}

// scaleInt returns v*f rounded down, floored at 1 and saturating at
// math.MaxInt instead of wrapping when the product does not fit an int.
func scaleInt(v int, f float64) int {
	s := float64(v) * f
	switch {
	case !(s >= 1): // also NaN
		return 1
	case s >= math.MaxInt:
		return math.MaxInt
	}
	return int(s)
}

// AccuracyPoint is one x-axis position of Fig. 3's WPR panels.
type AccuracyPoint struct {
	B   float64
	WPR map[Approach]float64
	RR  map[Approach]float64
}

// AccuracyResult is the full Fig. 3 reproduction for one dataset: the WPR
// curves (panels a/c) and the relative-error CDFs (panels b/d).
type AccuracyResult struct {
	Dataset Dataset
	K       int
	Points  []AccuracyPoint
	ErrCDF  map[Approach][]stats.CDFPoint
}

// Blocks renders Fig. 3: the WPR curves, then the error CDFs sampled at
// fixed relative errors.
func (r *AccuracyResult) Blocks() Series {
	d := string(r.Dataset)
	wpr := Block{
		Comments: []string{fmt.Sprintf("Fig. 3 (%s): WPR vs b, k=%d", d, r.K)},
		Columns: []Column{col("b(Mbps)", 8, ".1f"), col(d+"-TREE-CENTRAL", 14, ".4f"),
			col(d+"-TREE-DECENTRAL", 16, ".4f"), col(d+"-EUCL-CENTRAL", 14, ".4f")},
	}
	for _, p := range r.Points {
		wpr.Rows = append(wpr.Rows, []any{p.B, p.WPR[TreeCentral], p.WPR[TreeDecentral], p.WPR[EuclCentral]})
	}
	cdf := Block{
		Comments: []string{fmt.Sprintf("Fig. 3 (%s): CDF of relative bandwidth prediction error", d)},
		Columns:  []Column{col("rel.error", 12, ".2f"), col(d+"-TREE", 10, ".4f"), col(d+"-EUCL", 10, ".4f")},
	}
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0} {
		cdf.Rows = append(cdf.Rows, []any{x, cdfAt(r.ErrCDF[TreeCentral], x), cdfAt(r.ErrCDF[EuclCentral], x)})
	}
	return Series{wpr, cdf}
}

// RunAccuracy executes the Fig. 3 experiment.
func RunAccuracy(cfg AccuracyConfig) (*AccuracyResult, error) {
	return runAccuracy(cfg, 0)
}

// runAccuracy is RunAccuracy with each round's framework built on the
// given number of workers (0: one per CPU); the trees ablation passes 1
// because its curve fan-out already occupies the CPUs.
func runAccuracy(cfg AccuracyConfig, workers int) (*AccuracyResult, error) {
	dsCfg, err := cfg.Dataset.Config()
	if err != nil {
		return nil, err
	}
	k, bLo, bHi, err := cfg.Dataset.Band()
	if err != nil {
		return nil, err
	}
	if cfg.K > 0 {
		k = cfg.K
	}
	if cfg.BValues == nil {
		cfg.BValues = linspace(bLo, bHi, 7)
	}
	if cfg.QueriesPerB < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("sim: accuracy needs QueriesPerB >= 1 and Rounds >= 1")
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}
	if cfg.CDFPoints == 0 {
		cfg.CDFPoints = 200
	}

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	bw, err := dataset.Generate(dsCfg, dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: accuracy dataset: %w", err)
	}
	classes, err := overlay.ClassesFromBandwidths(cfg.BValues, cfg.C)
	if err != nil {
		return nil, err
	}

	wprs := make(map[float64]map[Approach]*WPRAccumulator, len(cfg.BValues))
	rrs := make(map[float64]map[Approach]*RateAccumulator, len(cfg.BValues))
	for _, b := range cfg.BValues {
		wprs[b] = map[Approach]*WPRAccumulator{
			TreeCentral: {}, TreeDecentral: {}, EuclCentral: {},
		}
		rrs[b] = map[Approach]*RateAccumulator{
			TreeCentral: {}, TreeDecentral: {}, EuclCentral: {},
		}
	}
	var treeErrs, euclErrs []float64

	for round := 0; round < cfg.Rounds; round++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(round)))
		fw, err := BuildFramework(bw, FrameworkConfig{
			C: cfg.C, NCut: cfg.NCut, Trees: cfg.Trees, Classes: classes, Euclid: true,
			Parallelism: workers,
		}, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: accuracy round %d: %w", round, err)
		}
		treeErrs = append(treeErrs, RelativeErrors(bw, fw.PredictedBandwidth)...)
		euclErrs = append(euclErrs, RelativeErrors(bw, func(u, v int) float64 {
			p, _ := fw.EuclideanBandwidth(u, v)
			return p
		})...)

		hosts := fw.Net.Hosts()
		for _, b := range cfg.BValues {
			l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
			if err != nil {
				return nil, err
			}
			// Centralized answers are deterministic per (framework, b):
			// evaluate once and weight once.
			central, err := fw.TreeIdx.Find(k, l)
			if err != nil {
				return nil, err
			}
			rrs[b][TreeCentral].Add(central != nil)
			if central != nil {
				wprs[b][TreeCentral].Add(bw, central, b)
			}
			eucl, err := fw.EuclIdx.Find(k, l)
			if err != nil {
				return nil, err
			}
			rrs[b][EuclCentral].Add(eucl != nil)
			if eucl != nil {
				wprs[b][EuclCentral].Add(bw, eucl, b)
			}
			// Decentralized answers depend on the start host.
			for q := 0; q < cfg.QueriesPerB; q++ {
				start := hosts[rng.Intn(len(hosts))]
				res, err := fw.Net.Query(start, k, l)
				if err != nil {
					return nil, fmt.Errorf("sim: accuracy query: %w", err)
				}
				rrs[b][TreeDecentral].Add(res.Found())
				if res.Found() {
					wprs[b][TreeDecentral].Add(bw, res.Cluster, b)
				}
			}
		}
	}

	res := &AccuracyResult{Dataset: cfg.Dataset, K: k, ErrCDF: make(map[Approach][]stats.CDFPoint, 2)}
	for _, b := range cfg.BValues {
		pt := AccuracyPoint{B: b, WPR: map[Approach]float64{}, RR: map[Approach]float64{}}
		for _, a := range []Approach{TreeCentral, TreeDecentral, EuclCentral} {
			pt.WPR[a] = wprs[b][a].Value()
			pt.RR[a] = rrs[b][a].Value()
		}
		res.Points = append(res.Points, pt)
	}
	treeCDF, err := stats.CDF(treeErrs)
	if err != nil {
		return nil, fmt.Errorf("sim: tree error cdf: %w", err)
	}
	euclCDF, err := stats.CDF(euclErrs)
	if err != nil {
		return nil, fmt.Errorf("sim: euclid error cdf: %w", err)
	}
	res.ErrCDF[TreeCentral] = DownsampleCDF(treeCDF, cfg.CDFPoints)
	res.ErrCDF[EuclCentral] = DownsampleCDF(euclCDF, cfg.CDFPoints)
	return res, nil
}
