package sim

import (
	"fmt"
	"math/rand"
	"time"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
)

// AsyncConfig holds what the series over the asynchronous runtime
// (faults, trace, bandwidth) share: the subset, the runtime's gossip
// period and convergence wait, the overlay, the query band and the seed.
type AsyncConfig struct {
	// N restricts the experiment to a subset (0: 24 hosts — the runtime
	// spawns a goroutine per host and gossips every tick, so runs stay
	// small).
	N int
	// Tick is the runtime gossip period (0: 1ms).
	Tick time.Duration
	// SettleQuiet and SettleTimeout bound the convergence wait (0: 150ms
	// and 30s).
	SettleQuiet   time.Duration
	SettleTimeout time.Duration
	NCut          int
	// BSteps is how many bandwidth classes span the dataset band.
	BSteps int
	C      float64
	Seed   int64
}

// defaultAsync returns the recorded async-series settings with seed.
func defaultAsync(seed int64) AsyncConfig {
	return AsyncConfig{N: 24, Tick: time.Millisecond, NCut: overlay.DefaultNCut, BSteps: 7, C: metric.DefaultC, Seed: seed}
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

// setup fills c's zero fields with their defaults and builds the
// series' framework; what names the series in errors.
func (c *AsyncConfig) setup(ds Dataset, what string) (asyncSetup, error) {
	dsCfg, err := ds.Config()
	if err != nil {
		return asyncSetup{}, err
	}
	k, bLo, bHi, err := ds.Band()
	if err != nil {
		return asyncSetup{}, err
	}
	if c.N <= 0 {
		c.N = 24
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.SettleQuiet <= 0 {
		c.SettleQuiet = 150 * time.Millisecond
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 30 * time.Second
	}
	if c.C <= 0 {
		c.C = metric.DefaultC
	}
	if c.NCut == 0 {
		c.NCut = overlay.DefaultNCut
	}
	dataRng := rand.New(rand.NewSource(c.Seed))
	bw, err := dataset.Generate(dsCfg.WithN(c.N), dataRng)
	if err != nil {
		return asyncSetup{}, fmt.Errorf("sim: %s dataset: %w", what, err)
	}
	s := asyncSetup{k: k, bValues: linspace(bLo, bHi, c.BSteps)}
	classes, err := overlay.ClassesFromBandwidths(s.bValues, c.C)
	if err != nil {
		return asyncSetup{}, err
	}
	s.ovCfg = overlay.Config{NCut: c.NCut, Classes: classes}
	if s.fw, err = BuildFramework(bw, FrameworkConfig{C: c.C, NCut: c.NCut, Classes: classes}, dataRng); err != nil {
		return asyncSetup{}, fmt.Errorf("sim: %s framework: %w", what, err)
	}
	return s, nil
}
