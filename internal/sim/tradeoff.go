package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
)

// TradeoffConfig parameterizes the Fig. 4 experiment (return rate vs
// cluster size constraint, centralized vs decentralized). The size
// constraints sweep the paper's range (2..90 for HP, 2..150 for UMD, in
// 12 steps) and b is drawn from the dataset's band (Dataset.queryGrid).
type TradeoffConfig struct {
	Dataset Dataset
	// QueriesPerK is how many queries each round submits per k (with b
	// drawn randomly from the classes).
	QueriesPerK int
	// Rounds is the number of frameworks (the paper uses 100).
	Rounds int
	// NCut is the overlay propagation cutoff.
	NCut int
	Seed int64
}

// DefaultTradeoffConfig returns the paper-scale Fig. 4 configuration.
func DefaultTradeoffConfig(ds Dataset) TradeoffConfig {
	return TradeoffConfig{
		Dataset:     ds,
		QueriesPerK: 8, // ~100 queries per round over the k sweep
		Rounds:      100,
		NCut:        overlay.DefaultNCut,
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
	_, bValues, ov, err := cfg.Dataset.queryGrid()
	if err != nil {
		return nil, err
	}
	if cfg.QueriesPerK < 1 || cfg.Rounds < 1 || cfg.NCut < 1 {
		return nil, fmt.Errorf("sim: tradeoff needs positive QueriesPerK, Rounds and NCut")
	}
	ov.NCut = cfg.NCut
	kMax := 90
	if cfg.Dataset == UMD {
		kMax = 150
	}
	kValues := intRange(2, kMax, 12)

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	bw, err := dataset.Generate(dsCfg, dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: tradeoff dataset: %w", err)
	}

	rrs := make(map[int]map[Approach]*RateAccumulator, len(kValues))
	for _, k := range kValues {
		rrs[k] = map[Approach]*RateAccumulator{TreeCentral: {}, TreeDecentral: {}}
	}
	for round := 0; round < cfg.Rounds; round++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 5000 + int64(round)))
		fw, err := BuildFramework(bw, FrameworkConfig{Config: construct.Config{Overlay: ov, Workers: workers}}, rng)
		if err != nil {
			return nil, fmt.Errorf("sim: tradeoff round %d: %w", round, err)
		}
		hosts := fw.Net.Hosts()
		for _, k := range kValues {
			for q := 0; q < cfg.QueriesPerK; q++ {
				b := bValues[rng.Intn(len(bValues))]
				l, err := metric.DistanceForBandwidthConstraint(b, metric.DefaultC)
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
	for _, k := range kValues {
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
