package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/runtime"
	"bwcluster/internal/transport"
)

// FaultsConfig parameterizes the fault-tolerance experiment: the
// asynchronous runtime is run over a deterministic fault-injecting
// transport at a grid of gossip loss rates and partition lengths, and
// each cell measures how long convergence to the synchronous fixed point
// takes and whether settled queries still agree with the synchronous
// engine. The cells run sequentially: each one times a live runtime, and
// co-scheduling runtimes would distort those timings.
type FaultsConfig struct {
	Dataset Dataset
	AsyncConfig
	// Queries is the per-cell settled query count.
	Queries int
}

// faultPartitionSends are the partition window lengths the fault grid
// sweeps, measured in transport sends; 0 means no partition.
var faultPartitionSends = []int{0, 1500}

// DefaultFaultsConfig returns the fault grid recorded in
// results/fault_series.txt.
func DefaultFaultsConfig(ds Dataset) FaultsConfig {
	return FaultsConfig{
		Dataset:     ds,
		AsyncConfig: defaultAsync(11),
		Queries:     30,
	}
}

// Scaled returns a copy with the per-cell query count multiplied by f.
func (c FaultsConfig) Scaled(f float64) FaultsConfig {
	c.Queries = scaleInt(c.Queries, f)
	return c
}

// FaultsPoint is one cell of the loss x partition grid.
type FaultsPoint struct {
	// Loss is the injected gossip drop rate.
	Loss float64
	// PartitionSends is the partition window length in transport sends
	// (0: no partition this cell).
	PartitionSends int
	// MsgsToSettle counts transport sends observed when Settle returned.
	MsgsToSettle int
	// SettleMs is the wall time from Start to settled, in milliseconds.
	SettleMs float64
	// Converged reports whether the settled runtime state equals the
	// synchronous overlay fixed point exactly.
	Converged bool
	// QuerySuccess is the fraction of settled queries whose findability
	// agrees with the synchronous engine.
	QuerySuccess float64
}

// FaultsResult is the fault-tolerance measurement grid.
type FaultsResult struct {
	Dataset Dataset
	N       int
	K       int
	Points  []FaultsPoint
}

// Blocks renders the fault grid: settle cost and query success per cell.
func (r *FaultsResult) Blocks() Series {
	b := Block{
		Comments: []string{
			fmt.Sprintf("fault series (%s, n=%d, k=%d): async runtime over seeded fault injection", r.Dataset, r.N, r.K),
			"partition cells cut a third of the peers off for the given number of transport sends, then heal",
		},
		Columns: []Column{col("loss", 8, ".2f"), col("partition", 11, "d"), col("msgs", 10, "d"),
			col("settle.ms", 10, ".1f"), col("converged", 10, "v"), col("qsuccess", 9, ".3f")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.Loss, p.PartitionSends, p.MsgsToSettle, p.SettleMs, p.Converged, p.QuerySuccess})
	}
	return Series{b}
}

// RunFaults builds one prediction framework, converges the synchronous
// reference overlay, then for every (loss, partition) cell runs the
// asynchronous runtime over a seeded FaultTransport and measures time to
// the fixed point and settled query agreement. Faults are GossipOnly:
// the paper's claim is that the periodic, idempotent gossip tolerates an
// unreliable network, not that one-shot query forwards do.
func RunFaults(cfg FaultsConfig) (*FaultsResult, error) {
	if cfg.Queries < 1 {
		return nil, fmt.Errorf("sim: faults needs positive Queries")
	}
	s, err := cfg.setup(cfg.Dataset, "faults")
	if err != nil {
		return nil, err
	}
	out := &FaultsResult{Dataset: cfg.Dataset, N: cfg.N, K: s.k}
	cell := 0
	for _, loss := range asyncLosses {
		for _, ps := range faultPartitionSends {
			cell++
			pt, err := runFaultCell(cfg, s, loss, ps, int64(cell))
			if err != nil {
				return nil, fmt.Errorf("sim: faults cell loss=%v partition=%d: %w", loss, ps, err)
			}
			out.Points = append(out.Points, pt)
		}
	}
	return out, nil
}

// runFaultCell measures one (loss, partition) grid cell.
//
// The settle stopwatch below reads the wall clock: it measures how long
// real convergence takes, which is the experiment's output, and never
// feeds back into algorithm state — hence the determinism suppressions.
func runFaultCell(cfg FaultsConfig, s asyncSetup, loss float64, ps int, cell int64) (FaultsPoint, error) {
	nw := s.fw.Net
	hosts := nw.Hosts()
	pt := FaultsPoint{Loss: loss, PartitionSends: ps}
	var parts []transport.Partition
	if ps > 0 {
		// Cut off roughly a third of the peers early in the send
		// sequence; the window closes after ps more sends and gossip
		// must re-converge across the healed cut.
		island := append([]int(nil), hosts[:len(hosts)/3]...)
		parts = []transport.Partition{{After: 100, Until: 100 + ps, Island: island}}
	}
	ft, err := transport.NewFault(transport.NewChan(0), transport.FaultConfig{
		Seed:       cfg.Seed + 1000*cell,
		Drop:       loss,
		GossipOnly: true,
		Partitions: parts,
	})
	if err != nil {
		return pt, err
	}
	rt, err := runtime.NewWithTransport(s.fw.Forest, s.fw.Dist, s.ovCfg, asyncTick, ft, nil)
	if err != nil {
		ft.Close()
		return pt, err
	}
	rt.Start()
	defer func() {
		rt.Stop()
		ft.Close()
	}()
	start := time.Now() //bwcvet:allow determinism wall-clock stopwatch; settle time is the measured output, never algorithm input
	if err := rt.Settle(asyncSettleQuiet, asyncSettleTimeout); err != nil {
		return pt, err
	}
	pt.SettleMs = float64(time.Since(start)) / float64(time.Millisecond) //bwcvet:allow determinism wall-clock stopwatch; settle time is the measured output, never algorithm input
	pt.MsgsToSettle = ft.Sends()
	pt.Converged = runtimeAtFixedPoint(nw, rt)

	queryRng := rand.New(rand.NewSource(cfg.Seed + 500 + cell))
	agree := 0
	for q := 0; q < cfg.Queries; q++ {
		b := s.bValues[queryRng.Intn(len(s.bValues))]
		l, err := metric.DistanceForBandwidthConstraint(b, metric.DefaultC)
		if err != nil {
			return pt, err
		}
		start := hosts[queryRng.Intn(len(hosts))]
		want, err := nw.Query(start, s.k, l)
		if err != nil {
			return pt, err
		}
		got, err := rt.Query(start, s.k, l, asyncSettleTimeout)
		if err != nil {
			return pt, err
		}
		if want.Found() == got.Found() {
			agree++
		}
	}
	pt.QuerySuccess = float64(agree) / float64(cfg.Queries)
	return pt, nil
}

// runtimeAtFixedPoint reports whether the settled runtime's full gossip
// state (selfCRT, aggregated node info and CRT per neighbor) equals the
// synchronous fixed point.
func runtimeAtFixedPoint(nw *overlay.Network, rt *runtime.Runtime) bool {
	for _, x := range rt.Hosts() {
		if !slices.Equal(nw.SelfCRT(x), rt.SelfCRT(x)) {
			return false
		}
		for _, m := range nw.Neighbors(x) {
			if !slices.Equal(nw.AggrNode(x, m), rt.AggrNode(x, m)) {
				return false
			}
			if !slices.Equal(nw.CRT(x, m), rt.CRT(x, m)) {
				return false
			}
		}
	}
	return true
}
