package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
)

// DynamicsConfig parameterizes the dynamic-clustering experiment. The
// paper's fifth requirement says cluster membership must adapt as network
// conditions change; the underlying framework restructures itself, so the
// interesting measurement is how much accuracy a *stale* framework loses
// as bandwidth drifts, compared to one rebuilt from fresh measurements.
// Epochs run sequentially: each drifts the previous state. The queries
// use the dataset's paper size constraint and band (Dataset.queryGrid).
type DynamicsConfig struct {
	Dataset Dataset
	// N restricts the experiment to a subset.
	N int
	// QueriesPerEpoch is the decentralized query count per epoch (split
	// across the frameworks).
	QueriesPerEpoch int
	Seed            int64
}

// The recorded drift scenario.
const (
	dynamicsEpochs     = 8   // drift steps to simulate
	dynamicsDriftSigma = 0.2 // per-epoch lognormal drift of every link
	// dynamicsFrameworks is how many frameworks each side averages over
	// (framework construction is itself randomized, so a single build is
	// noisy).
	dynamicsFrameworks = 3
)

// DefaultDynamicsConfig returns a moderate drift scenario.
func DefaultDynamicsConfig(ds Dataset) DynamicsConfig {
	return DynamicsConfig{
		Dataset:         ds,
		N:               120,
		QueriesPerEpoch: 60,
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
	k, bValues, ov, err := cfg.Dataset.queryGrid()
	if err != nil {
		return nil, err
	}
	if cfg.N < 1 || cfg.QueriesPerEpoch < 1 {
		return nil, fmt.Errorf("sim: dynamics needs positive N and QueriesPerEpoch")
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
	fwCfg := FrameworkConfig{Config: construct.Config{Overlay: ov}}

	// The stale frameworks share the epoch-0 refresh seeds, so both sides
	// start identical and the curves separate only through drift.
	stale := make([]*Framework, dynamicsFrameworks)
	for f := range stale {
		rng := rand.New(rand.NewSource(cfg.Seed + 200 + int64(f)*1000))
		if stale[f], err = BuildFramework(bw, fwCfg, rng); err != nil {
			return nil, fmt.Errorf("sim: dynamics stale framework %d: %w", f, err)
		}
	}

	out := &DynamicsResult{Dataset: cfg.Dataset, DriftSigma: dynamicsDriftSigma, K: k}
	current := bw
	for epoch := 0; epoch < dynamicsEpochs; epoch++ {
		if epoch > 0 {
			// Link capacities drift; the topology (and treeness) stays.
			if err := topo.Evolve(dynamicsDriftSigma, dataRng); err != nil {
				return nil, err
			}
			current, err = topo.Matrix(dataRng)
			if err != nil {
				return nil, err
			}
		}
		fresh := make([]*Framework, dynamicsFrameworks)
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
			l, err := metric.DistanceForBandwidthConstraint(b, metric.DefaultC)
			if err != nil {
				return nil, err
			}
			start := queryRng.Intn(cfg.N)
			fw := q % dynamicsFrameworks
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
