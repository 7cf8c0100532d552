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

// TreenessConfig parameterizes the Fig. 5 experiment: how the treeness of
// a dataset (epsilon_avg) affects clustering accuracy, and the
// normalization that makes the effect visible.
type TreenessConfig struct {
	// Base selects the generator family (the paper uses subsets of both
	// datasets; we generate same-size datasets with different noise).
	Base Dataset
	// N is the dataset size (paper: 100).
	N int
	// Noises are the treeness-noise levels producing the dataset family
	// (nil: six levels).
	Noises []float64
	// K is the size constraint (paper: 5).
	K int
	// BValues sweeps the bandwidth constraint (nil: 20 points in 5..300).
	// The paper submits 2000 random-b queries; with centralized clustering
	// the answer per (framework, b) is deterministic, so a b grid with one
	// evaluation per cell carries the same information.
	BValues []float64
	// Rounds is the number of frameworks per dataset (paper: 10).
	Rounds int
	// Alpha is the f_a* rescaling constant (paper: 3.2).
	Alpha float64
	// EpsSamples is the quartet sample count for epsilon_avg estimation.
	EpsSamples int
	C          float64
	Seed       int64
}

// DefaultTreenessConfig returns the paper-scale Fig. 5 configuration.
func DefaultTreenessConfig(base Dataset) TreenessConfig {
	return TreenessConfig{
		Base:       base,
		N:          100,
		Noises:     []float64{0.02, 0.08, 0.15, 0.25, 0.4, 0.6},
		K:          5,
		Rounds:     10,
		Alpha:      3.2,
		EpsSamples: 20000,
		C:          metric.DefaultC,
		Seed:       3,
	}
}

// Scaled returns a copy with the round count multiplied by f.
func (c TreenessConfig) Scaled(f float64) TreenessConfig {
	c.Rounds = scaleInt(c.Rounds, f)
	return c
}

// TreenessPoint is one (dataset, b) cell of Fig. 5.
type TreenessPoint struct {
	B       float64
	FB      float64 // CDF of pairwise bandwidth at b
	FA      float64 // fraction of pairs within [b-10, b+10]
	FAStar  float64
	WPR     float64
	WPRNorm float64 // WPR^(f_a*), the paper's normalization
	// Model is Equation 1's prediction WPR = f_b^(1/eps#), the value the
	// measured WPR should track.
	Model float64
}

// TreenessSeries is one dataset's curve, annotated with its treeness.
type TreenessSeries struct {
	Noise   float64
	EpsAvg  float64
	EpsStar float64
	Points  []TreenessPoint
}

// TreenessResult is the Fig. 5 reproduction.
type TreenessResult struct {
	Base   Dataset
	K      int
	Alpha  float64
	Series []TreenessSeries
}

// Blocks renders Fig. 5: a title block, then one table per noise level.
func (r *TreenessResult) Blocks() Series {
	out := Series{{Comments: []string{fmt.Sprintf("Fig. 5 (%s): WPR vs f_b per treeness level, k=%d, alpha=%.1f", r.Base, r.K, r.Alpha)}}}
	for _, s := range r.Series {
		b := Block{
			Comments: []string{fmt.Sprintf("dataset eps_avg=%.3f (noise sigma %.2f)", s.EpsAvg, s.Noise)},
			Columns: []Column{col("b", 8, ".1f"), col("f_b", 8, ".4f"), col("f_a", 8, ".4f"),
				col("WPR", 8, ".4f"), col("WPR^f_a*", 10, ".4f"), col("eq1", 8, ".4f")},
		}
		for _, p := range s.Points {
			b.Rows = append(b.Rows, []any{p.B, p.FB, p.FA, p.WPR, p.WPRNorm, p.Model})
		}
		out = append(out, b)
	}
	return out
}

// RunTreeness executes the Fig. 5 experiment with the centralized
// tree-metric approach (the error under study comes from the prediction
// framework, not from query routing).
func RunTreeness(cfg TreenessConfig) (*TreenessResult, error) {
	baseCfg, err := cfg.Base.Config()
	if err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		cfg.N = 100
	}
	if cfg.Noises == nil {
		cfg.Noises = DefaultTreenessConfig(cfg.Base).Noises
	}
	if cfg.K < 2 {
		cfg.K = 5
	}
	if cfg.BValues == nil {
		cfg.BValues = linspace(5, 300, 20)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("sim: treeness needs positive Rounds")
	}
	if cfg.Alpha <= 1 {
		cfg.Alpha = 3.2
	}
	if cfg.EpsSamples <= 0 {
		cfg.EpsSamples = 20000
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}

	out := &TreenessResult{Base: cfg.Base, K: cfg.K, Alpha: cfg.Alpha}
	out.Series = make([]TreenessSeries, len(cfg.Noises))
	// Each series derives all of its randomness from Seed and its own
	// index, so fanning the noise levels out never changes results.
	err = forEachIndexed(len(cfg.Noises), func(di int) error {
		noise := cfg.Noises[di]
		// All noise levels share the data seed: the generator consumes its
		// stream identically regardless of amplitude, so the datasets are
		// paired (same topology, same noise directions) and differ only in
		// treeness — the variable under study.
		dataRng := rand.New(rand.NewSource(cfg.Seed))
		bw, err := dataset.Generate(baseCfg.WithN(cfg.N).WithNoise(noise), dataRng)
		if err != nil {
			return fmt.Errorf("sim: treeness dataset %d: %w", di, err)
		}
		realDist, err := metric.DistanceFromBandwidth(bw, cfg.C)
		if err != nil {
			return err
		}
		epsAvg, err := metric.AvgEpsilon(realDist, cfg.EpsSamples, dataRng)
		if err != nil {
			return err
		}
		series := TreenessSeries{Noise: noise, EpsAvg: epsAvg, EpsStar: metric.EpsilonStar(epsAvg)}

		vals := bw.Values()
		wprs := make([]*WPRAccumulator, len(cfg.BValues))
		for i := range wprs {
			wprs[i] = &WPRAccumulator{}
		}
		for round := 0; round < cfg.Rounds; round++ {
			rng := rand.New(rand.NewSource(cfg.Seed + 9000 + int64(di)*101 + int64(round)))
			fw, err := BuildFramework(bw, FrameworkConfig{Config: construct.Config{C: cfg.C, Workers: 1}}, rng)
			if err != nil {
				return fmt.Errorf("sim: treeness round %d: %w", round, err)
			}
			for bi, b := range cfg.BValues {
				l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
				if err != nil {
					return err
				}
				members, err := fw.TreeIdx.Find(cfg.K, l)
				if err != nil {
					return err
				}
				if members == nil {
					continue
				}
				wprs[bi].Add(bw, members, b)
			}
		}
		for bi, b := range cfg.BValues {
			fb, err := stats.CDFAt(vals, b)
			if err != nil {
				return err
			}
			fa, err := stats.FractionIn(vals, b-10, b+10)
			if err != nil {
				return err
			}
			faStar, err := metric.FAStar(fa, cfg.Alpha)
			if err != nil {
				return err
			}
			wpr := wprs[bi].Value()
			series.Points = append(series.Points, TreenessPoint{
				B:       b,
				FB:      fb,
				FA:      fa,
				FAStar:  faStar,
				WPR:     wpr,
				WPRNorm: math.Pow(wpr, faStar),
				Model:   metric.ModelWPR(fb, metric.EpsilonSharp(series.EpsStar, faStar)),
			})
		}
		out.Series[di] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
