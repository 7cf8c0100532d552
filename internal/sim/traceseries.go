package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/metric"
	"bwcluster/internal/runtime"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// TraceSeriesConfig parameterizes the traced-faults experiment: the
// asynchronous runtime is run over seeded gossip loss, every query is
// traced, and each loss level measures how complete the reassembled
// span trees stay — the observability plane's own fidelity under the
// faults it exists to explain. The loss levels run sequentially: each
// times a live runtime.
type TraceSeriesConfig struct {
	Dataset Dataset
	AsyncConfig
	// Losses are the gossip drop rates to sweep (nil: 0, 0.1, 0.3).
	Losses []float64
	// Queries is the per-level traced query count.
	Queries int
	// Flight, when non-nil, is attached to every runtime so the series
	// leaves a black-box record (bwc-sim wires the process recorder
	// here for -flight-dump).
	Flight *telemetry.FlightRecorder
}

// DefaultTraceSeriesConfig returns the grid recorded in
// results/trace_series.txt.
func DefaultTraceSeriesConfig(ds Dataset) TraceSeriesConfig {
	return TraceSeriesConfig{
		Dataset:     ds,
		AsyncConfig: defaultAsync(11),
		Losses:      []float64{0, 0.1, 0.3},
		Queries:     30,
	}
}

// Scaled returns a copy with the per-level query count multiplied by f.
func (c TraceSeriesConfig) Scaled(f float64) TraceSeriesConfig {
	c.Queries = scaleInt(c.Queries, f)
	return c
}

// TraceSeriesPoint is one loss level of the traced series.
type TraceSeriesPoint struct {
	// Loss is the injected gossip drop rate.
	Loss float64
	// Queries is how many traced queries ran at this level.
	Queries int
	// Agreement is the fraction of queries whose findability agreed
	// with the synchronous engine.
	Agreement float64
	// AvgHops is the mean overlay hop count per query.
	AvgHops float64
	// CompleteTraces counts queries whose span tree carried every
	// expected hop event (res.Hops+2) and no gap span.
	CompleteTraces int
	// GapTraces counts queries whose tree contained at least one
	// explicit gap span (a dropped trace report, surfaced instead of
	// silently corrupting the tree).
	GapTraces int
	// AvgHopEvents is the mean number of hop events assembled per trace.
	AvgHopEvents float64
	// MaxGossipAgeTicks is the health monitor's gossip-age watermark
	// after the query batch.
	MaxGossipAgeTicks uint64
	// Converged reports whether the settled runtime matched the
	// synchronous fixed point exactly.
	Converged bool
}

// TraceSeriesResult is the traced-faults measurement series.
type TraceSeriesResult struct {
	Dataset Dataset
	N       int
	K       int
	Points  []TraceSeriesPoint
}

// Blocks renders the trace series: agreement, hops and trace
// completeness per loss level.
func (r *TraceSeriesResult) Blocks() Series {
	b := Block{
		Comments: []string{
			fmt.Sprintf("trace series (%s, n=%d, k=%d): traced queries over seeded gossip loss", r.Dataset, r.N, r.K),
			"complete: span tree carried every expected hop event; gap: >=1 dropped report surfaced as a gap span",
		},
		Columns: []Column{col("loss", 8, ".2f"), col("agree", 9, ".3f"), col("hops", 7, ".2f"),
			col("complete", 9, "d"), col("gapTrees", 9, "d"), col("evts", 6, ".2f"),
			col("maxAge", 10, "d"), col("converged", 9, "v"), col("queries", 10, "d")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.Loss, p.Agreement, p.AvgHops, p.CompleteTraces, p.GapTraces,
			p.AvgHopEvents, p.MaxGossipAgeTicks, p.Converged, p.Queries})
	}
	return Series{b}
}

// RunTraceSeries builds one prediction framework, converges the
// synchronous reference, then for each loss level runs the asynchronous
// runtime over a seeded GossipOnly FaultTransport, settles it, and runs
// traced queries, measuring answer agreement and trace completeness.
func RunTraceSeries(cfg TraceSeriesConfig) (*TraceSeriesResult, error) {
	if len(cfg.Losses) == 0 {
		cfg.Losses = []float64{0, 0.1, 0.3}
	}
	if cfg.Queries < 1 || cfg.BSteps < 1 {
		return nil, fmt.Errorf("sim: trace series needs positive Queries and BSteps")
	}
	s, err := cfg.setup(cfg.Dataset, "trace series")
	if err != nil {
		return nil, err
	}
	out := &TraceSeriesResult{Dataset: cfg.Dataset, N: cfg.N, K: s.k}
	for i, loss := range cfg.Losses {
		pt, err := runTraceLevel(cfg, s, loss, int64(i+1))
		if err != nil {
			return nil, fmt.Errorf("sim: trace series loss=%v: %w", loss, err)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// runTraceLevel measures one loss level: settled traced queries, their
// span-tree completeness, and the health watermark after the batch.
func runTraceLevel(cfg TraceSeriesConfig, s asyncSetup, loss float64, level int64) (TraceSeriesPoint, error) {
	nw := s.fw.Net
	hosts := nw.Hosts()
	pt := TraceSeriesPoint{Loss: loss, Queries: cfg.Queries}
	ft, err := transport.NewFault(transport.NewChan(0), transport.FaultConfig{
		Seed:       cfg.Seed + 1000*level,
		Drop:       loss,
		GossipOnly: true,
	})
	if err != nil {
		return pt, err
	}
	rt, err := runtime.NewWithTransport(s.fw.Forest, s.fw.Dist, s.ovCfg, cfg.Tick, ft, nil)
	if err != nil {
		ft.Close()
		return pt, err
	}
	rt.SetFlight(cfg.Flight)
	rt.Start()
	defer func() {
		rt.Stop()
		ft.Close()
	}()
	if err := rt.Settle(cfg.SettleQuiet, cfg.SettleTimeout); err != nil {
		return pt, err
	}
	pt.Converged = runtimeAtFixedPoint(nw, rt)

	queryRng := rand.New(rand.NewSource(cfg.Seed + 500 + level))
	agree, hops, events := 0, 0, 0
	for q := 0; q < cfg.Queries; q++ {
		b := s.bValues[queryRng.Intn(len(s.bValues))]
		l, err := metric.DistanceForBandwidthConstraint(b, cfg.C)
		if err != nil {
			return pt, err
		}
		start := hosts[queryRng.Intn(len(hosts))]
		want, err := nw.Query(start, s.k, l)
		if err != nil {
			return pt, err
		}
		span := telemetry.StartSpan("query")
		got, err := rt.QueryTraced(start, s.k, l, cfg.SettleTimeout, span)
		span.Finish()
		if err != nil {
			return pt, err
		}
		if want.Found() == got.Found() {
			agree++
		}
		hops += got.Hops
		ev, _ := span.Attr("hopEvents").(int)
		events += ev
		gaps := countGapSpans(span)
		if gaps > 0 {
			pt.GapTraces++
		} else if ev == got.Hops+2 {
			pt.CompleteTraces++
		}
	}
	pt.Agreement = float64(agree) / float64(cfg.Queries)
	pt.AvgHops = float64(hops) / float64(cfg.Queries)
	pt.AvgHopEvents = float64(events) / float64(cfg.Queries)
	pt.MaxGossipAgeTicks = rt.Health().MaxGossipAgeTicks
	return pt, nil
}

// countGapSpans walks a span tree counting explicit "gap" spans (the
// marker AttachEvents plants where a hop report never arrived).
func countGapSpans(s *telemetry.Span) int {
	if s == nil {
		return 0
	}
	n := 0
	if s.Name() == "gap" {
		n++
	}
	for _, c := range s.Children() {
		n += countGapSpans(c)
	}
	return n
}
