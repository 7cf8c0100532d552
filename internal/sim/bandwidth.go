package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/bwledger"
	"bwcluster/internal/metric"
	"bwcluster/internal/runtime"
	"bwcluster/internal/transport"
)

// BandwidthConfig parameterizes the bandwidth-accounting experiment: the
// asynchronous runtime runs over a channel transport with a bandwidth
// ledger attached, and the ledger's windows are closed at phase
// boundaries — once after gossip fan-in converges, once after a fig-3
// style query workload — so the series reports delivered bytes per link
// per window joined against the prediction forest's link bandwidth.
type BandwidthConfig struct {
	Dataset Dataset
	AsyncConfig
	// Queries is the query-phase workload size.
	Queries int
}

// DefaultBandwidthConfig returns the workload recorded in
// results/bandwidth_series.txt.
func DefaultBandwidthConfig(ds Dataset) BandwidthConfig {
	return BandwidthConfig{
		Dataset:     ds,
		AsyncConfig: defaultAsync(13),
		Queries:     60,
	}
}

// Scaled returns a copy with the query workload multiplied by f.
func (c BandwidthConfig) Scaled(f float64) BandwidthConfig {
	c.Queries = scaleInt(c.Queries, f)
	return c
}

// BandwidthPhase is one phase's closed ledger window plus its label.
type BandwidthPhase struct {
	// Name identifies the phase: "gossip" (fan-in to the fixed point) or
	// "queries" (the fig-3 style workload).
	Name string
	// Window is the ledger window closed at the phase boundary.
	Window bwledger.Window
}

// BandwidthResult is the bandwidth-accounting measurement.
type BandwidthResult struct {
	Dataset Dataset
	N       int
	K       int
	// Phases holds one closed window per workload phase, in order.
	Phases []BandwidthPhase
	// LedgerBytes and LedgerMessages are the ledger's cumulative totals.
	LedgerBytes    int64
	LedgerMessages int64
	// DeliveredDelta is the transport delivered-frame counter's movement
	// across the run. The ledger records at exactly the delivery sites
	// that increment that counter, so LedgerMessages must equal it — the
	// reconciliation the harness test asserts.
	DeliveredDelta uint64
	// Violations counts over-threshold links across all phases.
	Violations int
}

// Blocks renders the bandwidth series: the reconciliation header, then
// one row per tracked link per phase window and an "other" row for the
// evicted links' traffic.
func (r *BandwidthResult) Blocks() Series {
	b := Block{
		Comments: []string{
			fmt.Sprintf("bandwidth series (%s, n=%d, k=%d): per-link delivered bytes per window, joined against predicted link bandwidth", r.Dataset, r.N, r.K),
			"windows close at phase boundaries: gossip fan-in to the fixed point, then the fig-3 query workload",
			fmt.Sprintf("ledger total: %d bytes / %d messages; delivered-counter delta: %d (reconciled=%v); violations: %d",
				r.LedgerBytes, r.LedgerMessages, r.DeliveredDelta, uint64(r.LedgerMessages) == r.DeliveredDelta, r.Violations),
		},
		Columns: []Column{col("phase", 9, "s"), col("win", 5, "d"), col("link", 7, "s"), col("bytes", 10, "d"),
			col("msgs", 7, "d"), col("bytes/s", 12, ".1f"), col("pred.mbps", 10, ".2f"), col("util", 7, ".4f"), col("violation", 10, "v")},
	}
	for _, p := range r.Phases {
		w := p.Window
		for _, lw := range w.Links {
			b.Rows = append(b.Rows, []any{p.Name, w.Seq, fmt.Sprintf("%d-%d", lw.A, lw.B),
				lw.Bytes, lw.Messages, lw.BytesPerSec, lw.PredictedMbps, lw.Utilization, lw.Violation})
		}
		if w.OtherBytes > 0 {
			b.Rows = append(b.Rows, []any{p.Name, w.Seq, "other", w.OtherBytes, w.OtherMessages, "-", "-", "-", "-"})
		}
	}
	return Series{b}
}

// RunBandwidth builds one prediction framework, runs the asynchronous
// runtime over a ledger-attached channel transport, and closes one
// accounting window per phase: gossip fan-in (Start to settled) and a
// fig-3 style query workload. The ledger joins each window against the
// framework's predicted link bandwidth.
func RunBandwidth(cfg BandwidthConfig) (*BandwidthResult, error) {
	if cfg.Queries < 1 {
		return nil, fmt.Errorf("sim: bandwidth needs positive Queries")
	}
	s, err := cfg.setup(cfg.Dataset, "bandwidth")
	if err != nil {
		return nil, err
	}
	hosts := make([]int, cfg.N)
	for i := range hosts {
		hosts[i] = i
	}

	// The ledger attaches to the transport directly (not via the
	// runtime's window driver) so windows land exactly on the phase
	// boundaries instead of the runtime's periodic tick schedule.
	// The ledger keeps its default top-K and violation threshold.
	ledger := bwledger.New(bwledger.Config{})
	n := cfg.N
	ledger.SetPredictor(func(a, b int) (float64, bool) {
		if a < 0 || b < 0 || a >= n || b >= n {
			return 0, false
		}
		return s.fw.PredictedBandwidth(a, b), true
	})
	tr := transport.NewChan(0)
	tr.SetLedger(ledger)
	deliveredBefore := transport.DeliveredTotal()

	rt, err := runtime.NewWithTransport(s.fw.Forest, s.fw.Dist, s.ovCfg, asyncTick, tr, nil)
	if err != nil {
		tr.Close()
		return nil, err
	}
	rt.Start()
	defer func() {
		rt.Stop()
		tr.Close()
	}()

	out := &BandwidthResult{Dataset: cfg.Dataset, N: cfg.N, K: s.k}
	closePhase := func(name string, fromTick, toTick uint64) {
		// Window length on the runtime's logical clock: deterministic for
		// a fixed tick duration, never a wall-clock read.
		seconds := float64(toTick-fromTick) * asyncTick.Seconds()
		w := ledger.Roll(seconds)
		out.Phases = append(out.Phases, BandwidthPhase{Name: name, Window: w})
		out.Violations += len(w.Violations)
	}

	// Phase 1: gossip fan-in to the fixed point.
	if err := rt.Settle(asyncSettleQuiet, asyncSettleTimeout); err != nil {
		return nil, fmt.Errorf("sim: bandwidth settle: %w", err)
	}
	settleTick := rt.Ticks()
	closePhase("gossip", 0, settleTick)

	// Phase 2: the fig-3 style query workload (random starts, bandwidth
	// constraints swept across the dataset's band).
	queryRng := rand.New(rand.NewSource(cfg.Seed + 500))
	for q := 0; q < cfg.Queries; q++ {
		b := s.bValues[queryRng.Intn(len(s.bValues))]
		l, err := metric.DistanceForBandwidthConstraint(b, metric.DefaultC)
		if err != nil {
			return nil, err
		}
		start := hosts[queryRng.Intn(len(hosts))]
		if _, err := rt.Query(start, s.k, l, asyncSettleTimeout); err != nil {
			return nil, fmt.Errorf("sim: bandwidth query %d: %w", q, err)
		}
	}
	closePhase("queries", settleTick, rt.Ticks())

	// Quiesce the overlay before reading the cumulative counters: gossip
	// keeps delivering until Stop, and the reconciliation below compares
	// point-in-time totals. Stop is idempotent, so the deferred cleanup
	// stays valid.
	rt.Stop()
	out.LedgerBytes = ledger.TotalBytes()
	out.LedgerMessages = ledger.TotalMessages()
	out.DeliveredDelta = transport.DeliveredTotal() - deliveredBefore
	return out, nil
}
