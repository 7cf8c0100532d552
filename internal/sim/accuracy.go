package sim

import (
	"fmt"
	"math"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/stats"
)

// AccuracyConfig parameterizes the Fig. 3 experiment (clustering accuracy
// and bandwidth-prediction error, tree metric vs 2-d Euclidean). The
// queries use the dataset's paper size constraint and bandwidth band
// (Dataset.queryGrid).
type AccuracyConfig struct {
	Dataset Dataset
	// QueriesPerB is how many decentralized queries each round submits per
	// bandwidth value.
	QueriesPerB int
	// Rounds is how many frameworks (seeds) to average over.
	Rounds int
	// Trees is the prediction-forest size.
	Trees int
	// Seed makes the whole experiment reproducible.
	Seed int64
}

// accuracyCDFPoints caps the resolution of the error CDFs.
const accuracyCDFPoints = 200

// DefaultAccuracyConfig returns the paper-scale configuration: 1000
// queries per round split across the band, 10 rounds.
func DefaultAccuracyConfig(ds Dataset) AccuracyConfig {
	return AccuracyConfig{
		Dataset:     ds,
		QueriesPerB: 143, // ~1000 queries over 7 band points
		Rounds:      10,
		Trees:       construct.DefaultTrees,
		Seed:        1,
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
	k, bValues, ov, err := cfg.Dataset.queryGrid()
	if err != nil {
		return nil, err
	}
	if cfg.QueriesPerB < 1 || cfg.Rounds < 1 || cfg.Trees < 1 {
		return nil, fmt.Errorf("sim: accuracy needs positive QueriesPerB, Rounds and Trees")
	}

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	bw, err := dataset.Generate(dsCfg, dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: accuracy dataset: %w", err)
	}

	wprs := make(map[float64]map[Approach]*WPRAccumulator, len(bValues))
	rrs := make(map[float64]map[Approach]*RateAccumulator, len(bValues))
	for _, b := range bValues {
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
		fw, err := BuildFramework(bw, FrameworkConfig{Config: construct.Config{
			Trees: cfg.Trees, Overlay: ov, Workers: workers,
		}, Euclid: true}, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: accuracy round %d: %w", round, err)
		}
		treeErrs = append(treeErrs, RelativeErrors(bw, fw.PredictedBandwidth)...)
		euclErrs = append(euclErrs, RelativeErrors(bw, func(u, v int) float64 {
			p, _ := fw.EuclideanBandwidth(u, v)
			return p
		})...)

		hosts := fw.Net.Hosts()
		for _, b := range bValues {
			l, err := metric.DistanceForBandwidthConstraint(b, metric.DefaultC)
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
	for _, b := range bValues {
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
	res.ErrCDF[TreeCentral] = DownsampleCDF(treeCDF, accuracyCDFPoints)
	res.ErrCDF[EuclCentral] = DownsampleCDF(euclCDF, accuracyCDFPoints)
	return res, nil
}
