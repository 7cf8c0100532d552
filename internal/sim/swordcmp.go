package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/stats"
	"bwcluster/internal/sword"
)

// SwordConfig parameterizes the comparison against the SWORD-like
// exhaustive baseline from the paper's related work.
type SwordConfig struct {
	Dataset Dataset
	// KValues sweeps the size constraint (nil: 8 steps across 2..40% of n).
	KValues []int
	// Budget bounds each SWORD search's node expansions.
	Budget int
	// QueriesPerK is how many queries per (round, k).
	QueriesPerK int
	// Rounds is the number of frameworks / search seeds.
	Rounds int
	BSteps int
	C      float64
	Seed   int64
}

// DefaultSwordConfig compares on a 150-host HP-like subset.
func DefaultSwordConfig(ds Dataset) SwordConfig {
	return SwordConfig{
		Dataset:     ds,
		Budget:      2000,
		QueriesPerK: 10,
		Rounds:      5,
		BSteps:      7,
		C:           metric.DefaultC,
		Seed:        8,
	}
}

// Scaled returns a copy with rounds and query counts multiplied by f.
func (c SwordConfig) Scaled(f float64) SwordConfig {
	c.Rounds = scaleInt(c.Rounds, f)
	c.QueriesPerK = scaleInt(c.QueriesPerK, f)
	return c
}

// SwordPoint compares the two systems at one size constraint.
type SwordPoint struct {
	K int
	// SwordRR / SwordSteps / SwordExhausted describe the baseline:
	// verified answers (WPR identically 0) but budget-bounded search.
	SwordRR        float64
	SwordSteps     float64
	SwordExhausted float64
	// TreeRR / TreeWPR describe the paper's approach on the same queries.
	TreeRR  float64
	TreeWPR float64
}

// SwordResult is the comparison series plus the one-off costs.
type SwordResult struct {
	Dataset Dataset
	N       int
	Budget  int
	// SwordMeasurements is the full n-to-n measurement count SWORD needs
	// before it can search at all; TreeMeasurements is the count of
	// distinct pairs framework construction measured (averaged over
	// rounds; hosts cache measurement results).
	SwordMeasurements int
	TreeMeasurements  float64
	Points            []SwordPoint
}

// Blocks renders the SWORD comparison: up-front measurement cost, then
// per-k return rate and search cost of both approaches.
func (r *SwordResult) Blocks() Series {
	b := Block{
		Comments: []string{
			fmt.Sprintf("SWORD-like exhaustive baseline vs tree-metric clustering (%s, n=%d)", r.Dataset, r.N),
			fmt.Sprintf("SWORD needs %d n-to-n measurements up front; framework construction used %.0f (%.1f%%)",
				r.SwordMeasurements, r.TreeMeasurements, 100*r.TreeMeasurements/float64(r.SwordMeasurements)),
			fmt.Sprintf("SWORD answers are always correct (WPR 0) but its search is budget-bounded (%d expansions)", r.Budget),
		},
		Columns: []Column{col("k", 6, "d"), col("swordRR", 9, ".3f"), col("swordSteps", 11, ".1f"),
			col("exhausted", 11, ".3f"), col("treeRR", 8, ".3f"), col("treeWPR", 8, ".3f")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.K, p.SwordRR, p.SwordSteps, p.SwordExhausted, p.TreeRR, p.TreeWPR})
	}
	return Series{b}
}

// RunSwordComparison quantifies the related-work claim: the exhaustive
// baseline guarantees correct answers but needs n-to-n measurements and
// an exponential-worst-case search that a budget must cut off, while the
// tree-metric approach answers every query in polynomial time on cheap
// predictions at the cost of a small wrong-pair rate.
func RunSwordComparison(cfg SwordConfig) (*SwordResult, error) {
	dsCfg, err := cfg.Dataset.Config()
	if err != nil {
		return nil, err
	}
	_, bLo, bHi, err := cfg.Dataset.Band()
	if err != nil {
		return nil, err
	}
	n := 150
	if cfg.KValues == nil {
		cfg.KValues = intRange(2, (2*n)/5, 8)
	}
	if cfg.Budget < 1 || cfg.QueriesPerK < 1 || cfg.Rounds < 1 || cfg.BSteps < 1 {
		return nil, fmt.Errorf("sim: sword comparison needs positive Budget, QueriesPerK, Rounds and BSteps")
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	bw, err := dataset.Generate(dsCfg.WithN(n), dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: sword dataset: %w", err)
	}
	bValues := linspace(bLo, bHi, cfg.BSteps)

	out := &SwordResult{Dataset: cfg.Dataset, N: n, Budget: cfg.Budget,
		SwordMeasurements: n * (n - 1) / 2}
	type acc struct {
		swordRR, treeRR RateAccumulator
		exhausted       RateAccumulator
		steps           []float64
		treeWPR         WPRAccumulator
	}
	accs := make(map[int]*acc, len(cfg.KValues))
	for _, k := range cfg.KValues {
		accs[k] = &acc{}
	}
	measurements := 0.0
	for round := 0; round < cfg.Rounds; round++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 700 + int64(round)))
		fw, err := BuildFramework(bw, FrameworkConfig{Config: construct.Config{C: cfg.C}}, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: sword round %d: %w", round, err)
		}
		measurements += float64(fw.Forest.DistinctMeasurements())
		for _, k := range cfg.KValues {
			a := accs[k]
			for q := 0; q < cfg.QueriesPerK; q++ {
				b := bValues[rng.Intn(len(bValues))]
				res, err := sword.FindCluster(bw, k, b, cfg.Budget, rng)
				if err != nil {
					return nil, err
				}
				a.swordRR.Add(res.Found())
				a.exhausted.Add(res.Exhausted)
				a.steps = append(a.steps, float64(res.Steps))

				l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
				if err != nil {
					return nil, err
				}
				members, err := fw.TreeIdx.Find(k, l)
				if err != nil {
					return nil, err
				}
				a.treeRR.Add(members != nil)
				if members != nil {
					a.treeWPR.Add(bw, members, b)
				}
			}
		}
	}
	out.TreeMeasurements = measurements / float64(cfg.Rounds)
	for _, k := range cfg.KValues {
		a := accs[k]
		meanSteps, err := stats.Mean(a.steps)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SwordPoint{
			K:              k,
			SwordRR:        a.swordRR.Value(),
			SwordSteps:     meanSteps,
			SwordExhausted: a.exhausted.Value(),
			TreeRR:         a.treeRR.Value(),
			TreeWPR:        a.treeWPR.Value(),
		})
	}
	return out, nil
}
