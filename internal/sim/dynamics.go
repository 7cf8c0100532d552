package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
)

// DynamicsConfig parameterizes the dynamic-clustering experiment. The
// paper's fifth requirement says cluster membership must adapt as network
// conditions change; the underlying framework restructures itself, so the
// interesting measurement is how much accuracy a *stale* framework loses
// as bandwidth drifts, compared to one rebuilt from fresh measurements.
// Epochs run sequentially: each drifts the previous state.
type DynamicsConfig struct {
	Dataset Dataset
	// N restricts the experiment to a subset (0: 120 hosts).
	N int
	// K is the query size constraint (0: the dataset's paper value).
	K int
	// Epochs is how many drift steps to simulate.
	Epochs int
	// DriftSigma is the per-epoch lognormal drift of every pair.
	DriftSigma float64
	// QueriesPerEpoch is the decentralized query count per epoch (split
	// across the frameworks).
	QueriesPerEpoch int
	// Frameworks is how many frameworks each side averages over (framework
	// construction is itself randomized, so a single build is noisy).
	Frameworks int
	NCut       int
	BSteps     int
	C          float64
	Seed       int64
}

// DefaultDynamicsConfig returns a moderate drift scenario.
func DefaultDynamicsConfig(ds Dataset) DynamicsConfig {
	return DynamicsConfig{
		Dataset:         ds,
		N:               120,
		Epochs:          8,
		DriftSigma:      0.2,
		QueriesPerEpoch: 60,
		Frameworks:      3,
		NCut:            overlay.DefaultNCut,
		BSteps:          7,
		C:               metric.DefaultC,
		Seed:            6,
	}
}

// Scaled returns a copy with the per-epoch query count multiplied by f.
func (c DynamicsConfig) Scaled(f float64) DynamicsConfig {
	c.QueriesPerEpoch = scaleInt(c.QueriesPerEpoch, f)
	return c
}

// DynamicsPoint compares the stale and the refreshed framework at one
// drift epoch.
type DynamicsPoint struct {
	Epoch int
	// WPRStale/WPRRefreshed are wrong-pair rates against the CURRENT
	// (drifted) bandwidth.
	WPRStale     float64
	WPRRefreshed float64
	RRStale      float64
	RRRefreshed  float64
}

// DynamicsResult is the dynamic-clustering measurement series.
type DynamicsResult struct {
	Dataset    Dataset
	DriftSigma float64
	K          int
	Points     []DynamicsPoint
}

// Blocks renders the drift series: stale vs refreshed WPR and RR.
func (r *DynamicsResult) Blocks() Series {
	b := Block{
		Comments: []string{fmt.Sprintf("dynamics (%s): bandwidth drifts sigma=%.2f per epoch; stale vs refreshed framework, k=%d",
			r.Dataset, r.DriftSigma, r.K)},
		Columns: []Column{col("epoch", 7, "d"), col("WPR.stale", 10, ".4f"), col("WPR.refreshed", 13, ".4f"),
			col("RR.stale", 9, ".4f"), col("RR.refreshed", 12, ".4f")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.Epoch, p.WPRStale, p.WPRRefreshed, p.RRStale, p.RRRefreshed})
	}
	return Series{b}
}

// RunDynamics drifts the bandwidth matrix epoch by epoch. The stale
// framework is built once from the epoch-0 measurements and never
// updated; the refreshed framework is rebuilt from the current
// measurements each epoch (what the self-restructuring prediction
// framework achieves continuously).
func RunDynamics(cfg DynamicsConfig) (*DynamicsResult, error) {
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
	if cfg.N <= 0 {
		cfg.N = 120
	}
	if cfg.Epochs < 1 || cfg.QueriesPerEpoch < 1 || cfg.BSteps < 1 {
		return nil, fmt.Errorf("sim: dynamics needs positive Epochs, QueriesPerEpoch and BSteps")
	}
	if cfg.Frameworks < 1 {
		cfg.Frameworks = 3
	}
	if cfg.DriftSigma < 0 {
		return nil, fmt.Errorf("sim: drift sigma must be >= 0")
	}
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}

	dataRng := rand.New(rand.NewSource(cfg.Seed))
	topo, err := dataset.NewTopology(dsCfg.WithN(cfg.N), dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: dynamics topology: %w", err)
	}
	bw, err := topo.Matrix(dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: dynamics dataset: %w", err)
	}
	bValues := linspace(bLo, bHi, cfg.BSteps)
	classes, err := overlay.ClassesFromBandwidths(bValues, cfg.C)
	if err != nil {
		return nil, err
	}
	fwCfg := FrameworkConfig{Config: construct.Config{C: cfg.C, Overlay: overlay.Config{NCut: cfg.NCut, Classes: classes}}}

	// The stale frameworks share the epoch-0 refresh seeds, so both sides
	// start identical and the curves separate only through drift.
	stale := make([]*Framework, cfg.Frameworks)
	for f := range stale {
		rng := rand.New(rand.NewSource(cfg.Seed + 200 + int64(f)*1000))
		if stale[f], err = BuildFramework(bw, fwCfg, rng); err != nil {
			return nil, fmt.Errorf("sim: dynamics stale framework %d: %w", f, err)
		}
	}

	out := &DynamicsResult{Dataset: cfg.Dataset, DriftSigma: cfg.DriftSigma, K: k}
	current := bw
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if epoch > 0 {
			// Link capacities drift; the topology (and treeness) stays.
			if err := topo.Evolve(cfg.DriftSigma, dataRng); err != nil {
				return nil, err
			}
			current, err = topo.Matrix(dataRng)
			if err != nil {
				return nil, err
			}
		}
		fresh := make([]*Framework, cfg.Frameworks)
		for f := range fresh {
			rng := rand.New(rand.NewSource(cfg.Seed + 200 + int64(f)*1000 + int64(epoch)))
			if fresh[f], err = BuildFramework(current, fwCfg, rng); err != nil {
				return nil, fmt.Errorf("sim: dynamics refresh epoch %d: %w", epoch, err)
			}
		}
		pt := DynamicsPoint{Epoch: epoch}
		queryRng := rand.New(rand.NewSource(cfg.Seed + 300 + int64(epoch)))
		var wprStale, wprFresh WPRAccumulator
		var rrStale, rrFresh RateAccumulator
		for q := 0; q < cfg.QueriesPerEpoch; q++ {
			b := bValues[queryRng.Intn(len(bValues))]
			l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
			if err != nil {
				return nil, err
			}
			start := queryRng.Intn(cfg.N)
			fw := q % cfg.Frameworks
			sres, err := stale[fw].Net.Query(start, k, l)
			if err != nil {
				return nil, err
			}
			rrStale.Add(sres.Found())
			if sres.Found() {
				wprStale.Add(current, sres.Cluster, b)
			}
			fres, err := fresh[fw].Net.Query(start, k, l)
			if err != nil {
				return nil, err
			}
			rrFresh.Add(fres.Found())
			if fres.Found() {
				wprFresh.Add(current, fres.Cluster, b)
			}
		}
		pt.WPRStale = wprStale.Value()
		pt.WPRRefreshed = wprFresh.Value()
		pt.RRStale = rrStale.Value()
		pt.RRRefreshed = rrFresh.Value()
		out.Points = append(out.Points, pt)
	}
	return out, nil
}
