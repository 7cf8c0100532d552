package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
)

// TradeoffConfig parameterizes the Fig. 4 experiment (return rate vs
// cluster size constraint, centralized vs decentralized).
type TradeoffConfig struct {
	Dataset Dataset
	// KValues is the sweep of size constraints (nil: the paper's range —
	// 2..90 for HP, 2..150 for UMD, in 12 steps).
	KValues []int
	// BSteps is how many bandwidth classes span the dataset band.
	BSteps int
	// QueriesPerK is how many queries each round submits per k (with b
	// drawn randomly from the classes).
	QueriesPerK int
	// Rounds is the number of frameworks (the paper uses 100).
	Rounds int
	NCut   int
	C      float64
	Seed   int64
}

// DefaultTradeoffConfig returns the paper-scale Fig. 4 configuration.
func DefaultTradeoffConfig(ds Dataset) TradeoffConfig {
	return TradeoffConfig{
		Dataset:     ds,
		BSteps:      7,
		QueriesPerK: 8, // ~100 queries per round over the k sweep
		Rounds:      100,
		NCut:        overlay.DefaultNCut,
		C:           metric.DefaultC,
		Seed:        2,
	}
}

// Scaled returns a copy with rounds and query counts multiplied by f.
func (c TradeoffConfig) Scaled(f float64) TradeoffConfig {
	c.Rounds = scaleInt(c.Rounds, f)
	c.QueriesPerK = scaleInt(c.QueriesPerK, f)
	return c
}

// TradeoffPoint is one x-axis position of Fig. 4.
type TradeoffPoint struct {
	K  int
	RR map[Approach]float64
}

// TradeoffResult is the Fig. 4 reproduction for one dataset.
type TradeoffResult struct {
	Dataset Dataset
	NCut    int
	Points  []TradeoffPoint
}

// Blocks renders Fig. 4: RR vs k, centralized and decentralized.
func (r *TradeoffResult) Blocks() Series {
	d := string(r.Dataset)
	b := Block{
		Comments: []string{fmt.Sprintf("Fig. 4 (%s): RR vs k, n_cut=%d", d, r.NCut)},
		Columns:  []Column{col("k", 6, "d"), col(d+"-TREE-CENTRAL", 14, ".4f"), col(d+"-TREE-DECENTRAL", 16, ".4f")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.K, p.RR[TreeCentral], p.RR[TreeDecentral]})
	}
	return Series{b}
}

// RunTradeoff executes the Fig. 4 experiment: as k grows, the
// decentralized return rate falls below the centralized one because each
// peer only aggregates n_cut nodes per direction.
func RunTradeoff(cfg TradeoffConfig) (*TradeoffResult, error) {
	return runTradeoff(cfg, 0)
}

// runTradeoff is RunTradeoff with each round's framework built on the
// given number of workers (0: one per CPU); the n_cut ablation passes 1
// because its curve fan-out already occupies the CPUs.
func runTradeoff(cfg TradeoffConfig, workers int) (*TradeoffResult, error) {
	dsCfg, err := cfg.Dataset.Config()
	if err != nil {
		return nil, err
	}
	_, bLo, bHi, err := cfg.Dataset.Band()
	if err != nil {
		return nil, err
	}
	if cfg.KValues == nil {
		kMax := 90
		if cfg.Dataset == UMD {
			kMax = 150
		}
		cfg.KValues = intRange(2, kMax, 12)
	}
	if cfg.BSteps < 1 || cfg.QueriesPerK < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("sim: tradeoff needs positive BSteps, QueriesPerK and Rounds")
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}
	if cfg.NCut == 0 {
		cfg.NCut = overlay.DefaultNCut
	}

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	bw, err := dataset.Generate(dsCfg, dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: tradeoff dataset: %w", err)
	}
	bValues := linspace(bLo, bHi, cfg.BSteps)
	classes, err := overlay.ClassesFromBandwidths(bValues, cfg.C)
	if err != nil {
		return nil, err
	}

	rrs := make(map[int]map[Approach]*RateAccumulator, len(cfg.KValues))
	for _, k := range cfg.KValues {
		rrs[k] = map[Approach]*RateAccumulator{TreeCentral: {}, TreeDecentral: {}}
	}
	for round := 0; round < cfg.Rounds; round++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 5000 + int64(round)))
		fw, err := BuildFramework(bw, FrameworkConfig{
			C: cfg.C, NCut: cfg.NCut, Classes: classes, Parallelism: workers,
		}, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: tradeoff round %d: %w", round, err)
		}
		hosts := fw.Net.Hosts()
		for _, k := range cfg.KValues {
			for q := 0; q < cfg.QueriesPerK; q++ {
				b := bValues[rng.Intn(len(bValues))]
				l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
				if err != nil {
					return nil, err
				}
				central, err := fw.TreeIdx.Find(k, l)
				if err != nil {
					return nil, err
				}
				rrs[k][TreeCentral].Add(central != nil)
				start := hosts[rng.Intn(len(hosts))]
				res, err := fw.Net.Query(start, k, l)
				if err != nil {
					return nil, fmt.Errorf("sim: tradeoff query: %w", err)
				}
				rrs[k][TreeDecentral].Add(res.Found())
			}
		}
	}

	out := &TradeoffResult{Dataset: cfg.Dataset, NCut: cfg.NCut}
	for _, k := range cfg.KValues {
		out.Points = append(out.Points, TradeoffPoint{
			K: k,
			RR: map[Approach]float64{
				TreeCentral:   rrs[k][TreeCentral].Value(),
				TreeDecentral: rrs[k][TreeDecentral].Value(),
			},
		})
	}
	return out, nil
}

// intRange returns steps integers spanning [lo, hi] as evenly as possible.
func intRange(lo, hi, steps int) []int {
	if steps <= 1 || hi <= lo {
		return []int{lo}
	}
	out := make([]int, 0, steps)
	prev := lo - 1
	for i := 0; i < steps; i++ {
		v := lo + (hi-lo)*i/(steps-1)
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}
