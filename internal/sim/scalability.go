package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/stats"
)

// ScalabilityConfig parameterizes the Fig. 6 experiment: how the number of
// query routing hops grows with system size.
type ScalabilityConfig struct {
	// Base selects the generator family (paper: UMD subsets).
	Base Dataset
	// NValues is the sweep of system sizes (nil: 50..300 step 50).
	NValues []int
	// DatasetsPerN is how many random subsets per size (paper: 10).
	DatasetsPerN int
	// QueriesPerFramework is how many queries each framework receives.
	QueriesPerFramework int
	// Rounds is the number of frameworks per dataset (paper: 10).
	Rounds int
	// BSteps is how many bandwidth classes span the band.
	BSteps int
	NCut   int
	C      float64
	Seed   int64
}

// DefaultScalabilityConfig returns the paper-scale Fig. 6 configuration.
func DefaultScalabilityConfig() ScalabilityConfig {
	return ScalabilityConfig{
		Base:                UMD,
		NValues:             []int{50, 100, 150, 200, 250, 300},
		DatasetsPerN:        10,
		QueriesPerFramework: 100, // 1000 queries per dataset over 10 frameworks
		Rounds:              10,
		BSteps:              7,
		NCut:                overlay.DefaultNCut,
		C:                   metric.DefaultC,
		Seed:                4,
	}
}

// Scaled returns a copy with work multiplied by f.
func (c ScalabilityConfig) Scaled(f float64) ScalabilityConfig {
	c.DatasetsPerN = scaleInt(c.DatasetsPerN, f)
	c.QueriesPerFramework = scaleInt(c.QueriesPerFramework, f)
	c.Rounds = scaleInt(c.Rounds, f)
	return c
}

// ScalePoint is one x-axis position of Fig. 6, extended with the
// background messaging cost that makes the search "scalable" in the
// paper's sense: each peer's per-round traffic is bounded by its degree
// times n_cut, independent of n.
type ScalePoint struct {
	N       int
	AvgHops float64
	MaxHops int
	RR      float64
	// MsgsPerHostRound is the average number of protocol messages one
	// host sends per background round until convergence.
	MsgsPerHostRound float64
	// ConvergeRounds is the average number of rounds to the gossip fixed
	// point.
	ConvergeRounds float64
}

// ScalabilityResult is the Fig. 6 reproduction.
type ScalabilityResult struct {
	Base   Dataset
	Points []ScalePoint
}

// Blocks renders Fig. 6: routing hops, RR and gossip cost per size.
func (r *ScalabilityResult) Blocks() Series {
	b := Block{
		Comments: []string{fmt.Sprintf("Fig. 6 (%s subsets): query routing hops vs system size", r.Base)},
		Columns: []Column{col("n", 6, "d"), col("avg.hops", 10, ".3f"), col("max.hops", 9, "d"),
			col("RR", 6, ".3f"), col("msgs/host/rnd", 14, ".2f"), col("cvg.rounds", 10, ".1f")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.N, p.AvgHops, p.MaxHops, p.RR, p.MsgsPerHostRound, p.ConvergeRounds})
	}
	return Series{b}
}

// RunScalability executes the Fig. 6 experiment: for each system size,
// random subsets of the base dataset host decentralized frameworks, and
// random queries (k = 5%..30% of n, b across the band) are traced for
// routing hops.
func RunScalability(cfg ScalabilityConfig) (*ScalabilityResult, error) {
	baseCfg, err := cfg.Base.Config()
	if err != nil {
		return nil, err
	}
	_, bLo, bHi, err := cfg.Base.Band()
	if err != nil {
		return nil, err
	}
	if cfg.NValues == nil {
		cfg.NValues = DefaultScalabilityConfig().NValues
	}
	if cfg.DatasetsPerN < 1 || cfg.QueriesPerFramework < 1 || cfg.Rounds < 1 || cfg.BSteps < 1 {
		return nil, fmt.Errorf("sim: scalability needs positive DatasetsPerN, QueriesPerFramework, Rounds and BSteps")
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	base, err := dataset.Generate(baseCfg, dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: scalability base dataset: %w", err)
	}
	bValues := linspace(bLo, bHi, cfg.BSteps)
	classes, err := overlay.ClassesFromBandwidths(bValues, cfg.C)
	if err != nil {
		return nil, err
	}

	out := &ScalabilityResult{Base: cfg.Base}
	out.Points = make([]ScalePoint, len(cfg.NValues))
	// Every size derives its randomness from Seed and its own
	// parameters, so fanning the sizes out never changes results.
	err = forEachIndexed(len(cfg.NValues), func(ni int) error {
		n := cfg.NValues[ni]
		if n > base.N() {
			return fmt.Errorf("sim: subset size %d exceeds base %d", n, base.N())
		}
		var hopSamples []int
		rr := &RateAccumulator{}
		maxHops := 0
		msgsPerHostRound, convergeRounds := 0.0, 0.0
		frameworks := 0
		for ds := 0; ds < cfg.DatasetsPerN; ds++ {
			subRng := rand.New(rand.NewSource(cfg.Seed + 40000 + int64(n)*131 + int64(ds)))
			bw, err := dataset.RandomSubset(base, n, subRng)
			if err != nil {
				return err
			}
			for round := 0; round < cfg.Rounds; round++ {
				rng := rand.New(rand.NewSource(cfg.Seed + 80000 + int64(n)*257 + int64(ds)*17 + int64(round)))
				fw, err := BuildFramework(bw, FrameworkConfig{Config: construct.Config{C: cfg.C, Overlay: overlay.Config{NCut: cfg.NCut, Classes: classes}, Workers: 1}}, rng)
				if err != nil {
					return fmt.Errorf("sim: scalability n=%d: %w", n, err)
				}
				hosts := fw.Net.Hosts()
				frameworks++
				if rounds := fw.Net.Rounds(); rounds > 0 {
					convergeRounds += float64(rounds)
					msgsPerHostRound += float64(fw.Net.Stats().Messages()) /
						float64(rounds) / float64(len(hosts))
				}
				for q := 0; q < cfg.QueriesPerFramework; q++ {
					kLo, kHi := n/20, (3*n)/10 // 5% .. 30%
					if kLo < 2 {
						kLo = 2
					}
					if kHi <= kLo {
						kHi = kLo + 1
					}
					k := kLo + rng.Intn(kHi-kLo)
					b := bValues[rng.Intn(len(bValues))]
					l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
					if err != nil {
						return err
					}
					start := hosts[rng.Intn(len(hosts))]
					res, err := fw.Net.Query(start, k, l)
					if err != nil {
						return fmt.Errorf("sim: scalability query: %w", err)
					}
					hopSamples = append(hopSamples, res.Hops)
					if res.Hops > maxHops {
						maxHops = res.Hops
					}
					rr.Add(res.Found())
				}
			}
		}
		avg, err := stats.MeanInt(hopSamples)
		if err != nil {
			return err
		}
		pt := ScalePoint{N: n, AvgHops: avg, MaxHops: maxHops, RR: rr.Value()}
		if frameworks > 0 {
			pt.MsgsPerHostRound = msgsPerHostRound / float64(frameworks)
			pt.ConvergeRounds = convergeRounds / float64(frameworks)
		}
		out.Points[ni] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
