package runtime

import (
	"fmt"
	"time"

	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// The request lifecycle both query families share (Algorithm 4's
// cluster query and the single-node search): the caller registers a
// pending entry under a fresh id, sends the request to the start peer,
// and waits; peers forward it hop by hop, and whichever peer concludes
// routes the answer back to the start peer, which resolves the entry.
// A family is one request kind, one answer kind and one hop handler.

// pending is one in-flight request's reply slot.
type pending struct {
	ch     chan outcome
	answer transport.Kind // the answer kind that resolves the entry
	origin int            // start host the answer is routed to
	born   uint64         // monitor tick at submission
}

// outcome is what a pending request resolves with: the answer message,
// or an error when the request was canceled (origin removed).
type outcome struct {
	m   transport.Message
	err error
}

// answerKind is the kind that answers a request of kind k.
func answerKind(k transport.Kind) transport.Kind {
	if k == transport.KindNodeQuery {
		return transport.KindNodeResult
	}
	return transport.KindResult
}

// answerOf returns the request id and forward count an answer carries;
// ok is false when m is not an answer or lacks its payload.
func answerOf(m transport.Message) (id uint64, hops int, ok bool) {
	switch {
	case m.Kind == transport.KindResult && m.Result != nil:
		return m.Result.ID, m.Result.Hops, true
	case m.Kind == transport.KindNodeResult && m.NodeResult != nil:
		return m.NodeResult.ID, m.NodeResult.Hops, true
	}
	return 0, 0, false
}

// describe names a request for its timeout report.
func describe(m transport.Message) string {
	if q := m.NodeQuery; q != nil {
		return fmt.Sprintf("node query (l=%v)", q.L)
	}
	return fmt.Sprintf("query (k=%d, l=%v)", m.Query.K, m.Query.ClassL)
}

// request runs one request's lifecycle: it registers id as pending,
// sends m (addressed to the start peer, carrying id) and waits up to
// timeout for the answer. When span is non-nil the request carries a
// trace context rooted in a fresh span, and the hop reports that reach
// this runtime are assembled into span after the answer arrives.
func (rt *Runtime) request(m transport.Message, id uint64, span *telemetry.Span, timeout time.Duration) (transport.Message, error) {
	reply := make(chan outcome, replyCapacity)
	rt.pendMu.Lock()
	rt.pend[id] = pending{ch: reply, answer: answerKind(m.Kind), origin: m.To, born: rt.ticks.Load()}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	var rootSpanID uint64
	if span != nil {
		rootSpanID = rt.mintSpanID(m.To)
		m.Trace = &transport.TraceContext{TraceID: id, ParentSpan: rootSpanID, Origin: m.To, SentUnixNano: traceNow()}
	}
	if err := rt.tr.Send(m); err != nil {
		rt.dropPending(id)
		return transport.Message{}, fmt.Errorf("runtime: start peer %d did not accept the query: %w", m.To, err)
	}
	select {
	case out := <-reply:
		if out.err != nil {
			rt.collector.Take(id)
			return transport.Message{}, out.err
		}
		if span != nil {
			_, hops, _ := answerOf(out.m)
			rt.gatherTrace(span, rootSpanID, id, hops)
		}
		return out.m, nil
	case <-time.After(timeout):
		rt.dropPending(id)
		rt.collector.Take(id)
		what := describe(m)
		rt.fl().Anomaly(anomalyQueryTO, m.To, -1, what+" after "+timeout.String())
		return transport.Message{}, fmt.Errorf("runtime: %s timed out after %v", what, timeout)
	}
}

// dropPending abandons a pending reply; a late answer then finds no
// entry and is discarded.
func (rt *Runtime) dropPending(id uint64) {
	rt.pendMu.Lock()
	defer rt.pendMu.Unlock()
	delete(rt.pend, id)
	rt.updatePendingGaugeLocked()
}

// resolve completes the pending request a routed answer names. The
// reply channel is buffered and the entry is removed on first
// resolution, so duplicated deliveries (fault injection, at-least-once
// callers) are idempotently ignored and never block a peer loop. An
// answer of the other family's kind leaves the entry pending, like a
// late or foreign answer.
func (rt *Runtime) resolve(m transport.Message) {
	id, _, ok := answerOf(m)
	if !ok {
		return
	}
	rt.pendMu.Lock()
	e, ok := rt.pend[id]
	ok = ok && e.answer == m.Kind
	if ok {
		delete(rt.pend, id)
		rt.updatePendingGaugeLocked()
	}
	rt.pendMu.Unlock()
	if ok {
		e.ch <- outcome{m: m}
	}
}

// forward passes m to its next peer from a helper goroutine so a full
// inbox cannot stall this peer's main loop. If the transport rejects
// the forward (the next peer is dead and unrouted), notFound — this
// peer's not-found answer — goes to the origin instead, preserving the
// crash semantics.
func (p *peer) forward(m, notFound transport.Message) {
	p.rt.wg.Add(1)
	go func() {
		defer p.rt.wg.Done()
		if p.rt.tr.Send(m) != nil {
			_ = p.rt.tr.Send(notFound)
		}
	}()
}

// maxQueryHops is a safety bound against routing on inconsistent
// (not-yet-settled) CRTs; the overlay is a tree, so settled routing never
// gets near it.
const maxQueryHops = 10000
