package bwcluster

import (
	"fmt"
	"time"

	"bwcluster/internal/bwledger"
	"bwcluster/internal/membership"
	"bwcluster/internal/metric"
	"bwcluster/internal/runtime"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// DefaultAsyncTick is the gossip period an AsyncRuntime uses when the
// caller passes a non-positive tick.
const DefaultAsyncTick = time.Millisecond

// AsyncRuntime is a live asynchronous deployment of the decentralized
// protocol over a built System: one goroutine per host, gossip every
// tick, queries routed peer-to-peer as messages (Algorithms 2-4 run
// event-driven instead of in synchronous rounds). It carries its own
// observability plane — a flight recorder of structured overlay events
// and a health monitor (gossip-age watermarks, convergence, pending
// -reply gauges) — which bwc-serve exposes on /v1/flight and /v1/health
// when started with -async.
type AsyncRuntime struct {
	sys    *System
	rt     *runtime.Runtime
	flight *telemetry.FlightRecorder
	ledger *bwledger.Ledger
}

// AsyncRuntime starts the asynchronous runtime over the system's
// prediction framework. Gossip begins immediately; the runtime reaches
// the same fixed point the synchronous overlay converged to, so settled
// queries agree with Query. Use Settle to wait for convergence (or poll
// Health().Converged for non-blocking readiness) and Close to stop the
// goroutines. A non-positive tick uses DefaultAsyncTick.
func (s *System) AsyncRuntime(tick time.Duration) (*AsyncRuntime, error) {
	return s.AsyncRuntimeWithTransport(tick, nil, nil)
}

// AsyncRuntimeWithTransport starts the asynchronous runtime over a
// caller-supplied transport, hosting only the given subset of the
// system's hosts in this process. This is how a fleet shard joins a
// multi-process overlay: every shard holds the same built System (so
// epochs agree), each hosts a disjoint slice of its peers over a shared
// TCPTransport, and gossip and query forwarding cross process
// boundaries as wire frames. Semantics otherwise match AsyncRuntime;
// queries must start at a locally hosted peer. A nil tr and nil local
// are AsyncRuntime: an in-process transport hosting every peer. Every
// runtime reads the system's own predicted-distance snapshot.
func (s *System) AsyncRuntimeWithTransport(tick time.Duration, tr transport.Transport, local []int) (*AsyncRuntime, error) {
	if tick <= 0 {
		tick = DefaultAsyncTick
	}
	rt, err := runtime.NewWithTransport(s.state.Forest, s.state.Dist, s.ovCfg, tick, tr, local)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: async runtime: %w", err)
	}
	// Liveness tracking is always on (it is a read-only observer of the
	// gossip-age watermarks the health monitor already keeps), but a
	// serving runtime never auto-evicts: a dead declaration is reported
	// on /v1/membership, and the operator decides.
	if _, err := rt.AttachMembership(membership.Config{}, false); err != nil {
		return nil, fmt.Errorf("bwcluster: async runtime: %w", err)
	}
	flight := telemetry.NewFlightRecorder(0)
	rt.SetFlight(flight)
	// The bandwidth ledger accounts every delivery on the runtime's
	// transport and joins each closed window against the prediction
	// forest; an over-utilized link fires a bandwidth_violation anomaly
	// into the same flight recorder the rest of the overlay records to.
	ledger := bwledger.New(bwledger.Config{})
	ledger.SetFlight(flight)
	ledger.SetPredictor(func(a, b int) (float64, bool) {
		mbps, err := s.PredictBandwidth(a, b)
		if err != nil {
			return 0, false // client-submitted traffic (host -1) has no link prediction
		}
		return mbps, true
	})
	rt.SetLedger(ledger)
	rt.Start()
	return &AsyncRuntime{sys: s, rt: rt, flight: flight, ledger: ledger}, nil
}

// Settle blocks until gossip has been quiet for the given window (the
// runtime is at its fixed point) or the timeout elapses.
func (a *AsyncRuntime) Settle(quiet, timeout time.Duration) error {
	return a.rt.Settle(quiet, timeout)
}

// Health returns the runtime's point-in-time health summary: readiness
// (convergence-monitor verdict), gossip-age watermarks, pending-reply
// and trace-backlog populations, and the logical clock.
func (a *AsyncRuntime) Health() runtime.Health { return a.rt.Health() }

// Converged reports the convergence monitor's current verdict.
func (a *AsyncRuntime) Converged() bool { return a.rt.Converged() }

// Membership returns a point-in-time snapshot of the liveness tracker:
// per-host status (alive, suspect after a quiet window, dead past the
// death threshold, left), the membership epoch, and the recent
// join/leave/fail/suspect/recover event log. Served on /v1/membership.
func (a *AsyncRuntime) Membership() membership.Snapshot {
	return a.rt.Membership().Snapshot()
}

// Flight returns the runtime's flight recorder — the bounded black-box
// ring of structured overlay events (hops, drops, staleness episodes,
// anomalies) behind /v1/flight.
func (a *AsyncRuntime) Flight() *telemetry.FlightRecorder { return a.flight }

// Bandwidth returns the bandwidth ledger's snapshot — per-link byte
// accounting joined against the prediction forest, behind /v1/bandwidth.
func (a *AsyncRuntime) Bandwidth() bwledger.Snapshot { return a.ledger.Snapshot() }

// Query routes a decentralized cluster query through the live runtime,
// waiting up to timeout for the routed answer. Semantics match
// System.Query once the runtime has settled.
func (a *AsyncRuntime) Query(start, k int, minBandwidth float64, timeout time.Duration) (QueryResult, error) {
	res, _, err := a.query(start, k, minBandwidth, timeout, nil)
	return res, err
}

// QueryTraced is Query with distributed tracing: the query carries a
// trace context across every overlay hop, each hop reports a span event
// back to the origin, and the reassembled causal tree (hop spans with
// host, peer, queue wait; dropped reports as explicit gap spans) is
// attached to the returned span, which is finished and marshals to JSON.
func (a *AsyncRuntime) QueryTraced(start, k int, minBandwidth float64, timeout time.Duration) (QueryResult, *telemetry.Span, error) {
	span := telemetry.StartSpan("query")
	span.SetAttr("start", start)
	span.SetAttr("minBandwidthMbps", minBandwidth)
	span.SetAttr("async", true)
	defer span.Finish()
	res, _, err := a.query(start, k, minBandwidth, timeout, span)
	if err != nil {
		return res, span, err
	}
	span.SetAttr("found", res.Found())
	span.SetAttr("hops", res.Hops)
	span.SetAttr("answeredBy", res.AnsweredBy)
	return res, span, nil
}

// query converts bandwidth to distance, runs the runtime query and
// converts the answer back to the facade's types.
func (a *AsyncRuntime) query(start, k int, minBandwidth float64, timeout time.Duration, span *telemetry.Span) (QueryResult, *telemetry.Span, error) {
	if err := a.sys.checkHost(start); err != nil {
		return QueryResult{}, span, err
	}
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, a.sys.c)
	if err != nil {
		return QueryResult{}, span, fmt.Errorf("bwcluster: %w", err)
	}
	t0 := time.Now()
	res, err := a.rt.QueryTraced(start, k, l, timeout, span)
	mQuerySeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		return QueryResult{}, span, fmt.Errorf("bwcluster: %w", err)
	}
	out := QueryResult{Members: res.Cluster, Hops: res.Hops, AnsweredBy: res.Answered}
	if res.Class > 0 {
		out.Class = a.sys.c / res.Class
	}
	return out, span, nil
}

// QueryNode routes the decentralized single-node search through the
// live runtime, mirroring System.QueryNode.
func (a *AsyncRuntime) QueryNode(start int, set []int, minBandwidth float64, timeout time.Duration) (NodeQueryResult, error) {
	if err := a.sys.checkHost(start); err != nil {
		return NodeQueryResult{}, err
	}
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, a.sys.c)
	if err != nil {
		return NodeQueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	res, err := a.rt.QueryNode(start, set, l, timeout)
	if err != nil {
		return NodeQueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	out := NodeQueryResult{Node: res.Node, Hops: res.Hops, AnsweredBy: res.Answered}
	if res.Found() && res.Radius > 0 {
		out.WorstBandwidth = a.sys.c / res.Radius
	}
	return out, nil
}

// Close stops the runtime's peer and monitor goroutines. The underlying
// System stays usable; the AsyncRuntime must not be queried after Close.
func (a *AsyncRuntime) Close() { a.rt.Stop() }
