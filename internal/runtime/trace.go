package runtime

import (
	"strconv"
	"time"

	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// Distributed tracing for the asynchronous engine. A traced query
// carries a compact transport.TraceContext on its envelope; every hop
// that handles it mints a span event (host, peer, kind, queue wait,
// processing time) and reports it to the trace's origin as a
// fire-and-forget KindTrace message. The origin's collector reassembles
// whatever arrived into the caller's span tree — a dropped report
// becomes an explicit gap, never a corrupted tree. Untraced operations
// carry a nil context and skip all of this at the cost of one pointer
// comparison per hop.
//
// Trace timestamps are wall-clock reads in an algorithm package; every
// site goes through traceNow below, whose value flows only into trace
// reporting (span events, queue waits), never into protocol state, so
// the determinism suppression is sound.

// traceNow is the single wall-clock read used for trace timestamps.
func traceNow() int64 {
	return time.Now().UnixNano() //bwcvet:allow determinism trace timestamps only; span events never feed algorithm state
}

// mintSpanID returns a span id unique across every host of the network:
// the high 32 bits are the executing host (+1 so host 0 stays nonzero),
// the low 32 bits a per-runtime sequence. Two runtimes never host the
// same peer, so the ranges are disjoint across processes.
func (rt *Runtime) mintSpanID(host int) uint64 {
	return uint64(host+1)<<32 | (rt.spanSeq.Add(1) & 0xffffffff)
}

// SetFlight attaches a flight recorder to the runtime: query hops,
// CRT recomputations, staleness ticks and anomalies (query timeouts,
// settle stalls, swept pending entries) are recorded. A nil recorder
// detaches.
func (rt *Runtime) SetFlight(r *telemetry.FlightRecorder) { rt.flight.Store(r) }

// fl returns the attached flight recorder (nil-safe to use directly).
func (rt *Runtime) fl() *telemetry.FlightRecorder { return rt.flight.Load() }

// Flight event kinds and anomaly kinds recorded by the runtime.
const (
	flightHop       = "hop"
	flightCRT       = "crt_recompute"
	flightStale     = "gossip_stale"
	flightSweep     = "pend_sweep"
	anomalyQueryTO  = "query_timeout"
	anomalySettle   = "fixedpoint_stall"
	anomalyPendLeak = "pend_leak"
)

// hopTrace is the in-flight state of one traced hop on a peer: the
// incoming context plus this hop's identity and timings.
type hopTrace struct {
	ctx     transport.TraceContext
	spanID  uint64
	start   int64
	queueNs int64
	note    string
}

// beginHop starts the span for a traced message delivery (nil for
// untraced messages — the hot-path cost of tracing-off is this check).
func (p *peer) beginHop(m transport.Message) *hopTrace {
	if m.Trace == nil {
		return nil
	}
	now := traceNow()
	return &hopTrace{
		ctx:     *m.Trace,
		spanID:  p.rt.mintSpanID(p.id),
		start:   now,
		queueNs: now - m.Trace.SentUnixNano,
	}
}

// setNote records the hop's outcome (nil-safe).
func (ht *hopTrace) setNote(note string) {
	if ht != nil {
		ht.note = note
	}
}

// onward returns the trace context for a message this hop sends — the
// forwarded request, or the answer routed to the origin, which then
// times the return leg: the receiver's parent is this span.
func (ht *hopTrace) onward() *transport.TraceContext {
	if ht == nil {
		return nil
	}
	return &transport.TraceContext{
		TraceID:      ht.ctx.TraceID,
		ParentSpan:   ht.spanID,
		Hop:          ht.ctx.Hop + 1,
		Origin:       ht.ctx.Origin,
		SentUnixNano: traceNow(),
	}
}

// finishHop closes a traced hop: it reports the span event to the
// trace's origin (best-effort — a drop becomes a visible gap) and logs
// the hop in the flight ring. kind is the handled message's label.
func (p *peer) finishHop(ht *hopTrace, kind string) {
	if ht == nil {
		return
	}
	ev := telemetry.NewSpanEvent(ht.ctx.TraceID, ht.spanID, ht.ctx.ParentSpan)
	ev.Host, ev.Peer, ev.Hop = p.id, -1, ht.ctx.Hop
	ev.Kind, ev.Note = kind, ht.note
	ev.StartUnixNano, ev.DurationNs, ev.QueueNs = ht.start, traceNow()-ht.start, ht.queueNs
	p.rt.fl().Record(flightHop, p.id, ht.ctx.Origin, kind+" hop="+strconv.Itoa(ht.ctx.Hop)+" "+ht.note)
	mTraceEvents.Inc()
	if p.id == ht.ctx.Origin {
		// The origin's own hop needs no wire trip.
		p.rt.collector.Add(*ev)
		return
	}
	_ = p.rt.tr.TrySend(transport.Message{
		Kind: transport.KindTrace, From: p.id, To: ht.ctx.Origin, Event: ev,
	})
}

// noteReturnLeg records the answer's arrival at the origin as a span
// event, closing the causal chain with the return leg's queue time.
func (rt *Runtime) noteReturnLeg(host int, tc *transport.TraceContext, kind string) {
	if tc == nil {
		return
	}
	now := traceNow()
	se := telemetry.NewSpanEvent(tc.TraceID, rt.mintSpanID(host), tc.ParentSpan)
	se.Host, se.Peer, se.Hop = host, -1, tc.Hop
	se.Kind, se.Note = kind, "return"
	se.StartUnixNano, se.QueueNs = now, now-tc.SentUnixNano
	rt.collector.Add(*se)
}

// gatherTrace waits (bounded) for the trace's hop reports to reach the
// collector, then attaches them to span. res.Hops forwards mean
// res.Hops+1 hop events plus the origin's return-leg event when nothing
// was dropped; the wait ends early once that many arrived, and whatever
// is present when the grace budget runs out is assembled — missing
// reports appear as explicit gaps.
//
// The wait loop reads the wall clock purely to bound the grace period;
// like Settle, none of these reads feed algorithm state.
func (rt *Runtime) gatherTrace(span *telemetry.Span, rootSpanID, traceID uint64, hops int) {
	want := hops + 2
	deadline := time.Now().Add(traceGatherGrace(rt.tick)) //bwcvet:allow determinism wall-clock grace bound for trace gathering; never feeds algorithm state
	for rt.collector.Count(traceID) < want {
		if time.Now().After(deadline) { //bwcvet:allow determinism wall-clock grace check; never feeds algorithm state
			break
		}
		time.Sleep(rt.tick / 4)
	}
	events := rt.collector.Take(traceID)
	span.SetAttr("traceID", int64(traceID))
	span.SetAttr("hopEvents", len(events))
	span.SetAttr("hopsExpected", want)
	span.AttachEvents(rootSpanID, events)
}

// traceGatherGrace bounds how long a traced query waits for straggler
// hop reports after its answer arrived: long enough for a report routed
// over TCP to cross, short enough that lossy transports (whose dropped
// reports never come) don't stall the caller.
func traceGatherGrace(tick time.Duration) time.Duration {
	g := 50 * tick
	if g < 20*time.Millisecond {
		g = 20 * time.Millisecond
	}
	if g > time.Second {
		g = time.Second
	}
	return g
}
