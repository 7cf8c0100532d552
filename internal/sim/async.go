package sim

import (
	"fmt"
	"math/rand"
	"time"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/overlay"
)

// AsyncConfig holds what the series over the asynchronous runtime
// (faults, trace, bandwidth) share: the subset size and the seed. They
// also share the query grid (Dataset.queryGrid), the gossip period and
// the convergence wait.
type AsyncConfig struct {
	// N restricts the experiment to a subset (the runtime spawns a
	// goroutine per host and gossips every tick, so runs stay small).
	N    int
	Seed int64
}

// The runtime settings every async series runs at.
const (
	asyncTick          = time.Millisecond // the runtime gossip period
	asyncSettleQuiet   = 150 * time.Millisecond
	asyncSettleTimeout = 30 * time.Second
)

// asyncLosses are the gossip drop rates the faults and trace series sweep.
var asyncLosses = []float64{0, 0.1, 0.3}

// defaultAsync returns the recorded async-series settings with seed.
func defaultAsync(seed int64) AsyncConfig {
	return AsyncConfig{N: 24, Seed: seed}
}

// asyncSetup is the state an async series builds once: the query size
// and band, and one framework (with its converged synchronous overlay,
// the reference runtimes are compared against) over an N-host topology.
type asyncSetup struct {
	k       int
	bValues []float64
	fw      *Framework
	ovCfg   overlay.Config
}

// setup builds the series' framework; what names the series in errors.
func (c AsyncConfig) setup(ds Dataset, what string) (asyncSetup, error) {
	dsCfg, err := ds.Config()
	if err != nil {
		return asyncSetup{}, err
	}
	k, bValues, ov, err := ds.queryGrid()
	if err != nil {
		return asyncSetup{}, err
	}
	if c.N < 1 {
		return asyncSetup{}, fmt.Errorf("sim: %s needs positive N", what)
	}
	dataRng := rand.New(rand.NewSource(c.Seed))
	bw, err := dataset.Generate(dsCfg.WithN(c.N), dataRng)
	if err != nil {
		return asyncSetup{}, fmt.Errorf("sim: %s dataset: %w", what, err)
	}
	s := asyncSetup{k: k, bValues: bValues, ovCfg: ov}
	if s.fw, err = BuildFramework(bw, FrameworkConfig{Config: construct.Config{Overlay: ov}}, dataRng); err != nil {
		return asyncSetup{}, fmt.Errorf("sim: %s framework: %w", what, err)
	}
	return s, nil
}
