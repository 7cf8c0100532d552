package runtime

import (
	"fmt"
	"math"
	"time"

	"bwcluster/internal/overlay"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// QueryNode runs the decentralized single-node search over the live
// network: find one host whose maximum predicted distance to every
// member of set is at most l, hill-climbing toward the incumbent best
// candidate's region (see overlay.Network.QueryNode for the algorithm).
// The start peer must be hosted by this runtime; set members may live
// anywhere in the network.
func (rt *Runtime) QueryNode(start int, set []int, l float64, timeout time.Duration) (overlay.NodeResult, error) {
	return rt.QueryNodeTraced(start, set, l, timeout, nil)
}

// QueryNodeTraced is QueryNode with distributed tracing; see QueryTraced
// for the trace semantics (a nil span runs the exact untraced path).
func (rt *Runtime) QueryNodeTraced(start int, set []int, l float64, timeout time.Duration, span *telemetry.Span) (overlay.NodeResult, error) {
	if p := rt.peerByID(start); p == nil {
		return overlay.NodeResult{}, fmt.Errorf("runtime: unknown start host %d", start)
	}
	if len(set) == 0 {
		return overlay.NodeResult{}, fmt.Errorf("runtime: empty input set")
	}
	tbl := rt.table.Load()
	for _, m := range set {
		if !tbl.Has(m) {
			return overlay.NodeResult{}, fmt.Errorf("runtime: set member %d is not a live host", m)
		}
	}
	if l < 0 {
		return overlay.NodeResult{}, fmt.Errorf("runtime: constraint l must be >= 0, got %v", l)
	}
	id := rt.qid.Add(1)
	reply := make(chan nodeOutcome, replyCapacity)
	rt.pendMu.Lock()
	rt.pendNode[id] = pendingNode{ch: reply, origin: start, born: rt.ticks.Load()}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	var tc *transport.TraceContext
	var rootSpanID uint64
	if span != nil {
		rootSpanID = rt.mintSpanID(start)
		tc = &transport.TraceContext{TraceID: id, ParentSpan: rootSpanID, Origin: start, SentUnixNano: traceNow()}
	}
	q := &transport.NodeQuery{
		ID:         id,
		Origin:     start,
		Set:        append([]int(nil), set...),
		L:          l,
		BestNode:   -1,
		BestRadius: math.Inf(1),
		Prev:       -1,
	}
	if err := rt.tr.Send(transport.Message{Kind: transport.KindNodeQuery, From: -1, To: start, NodeQuery: q, Trace: tc}); err != nil {
		rt.dropPendingNode(id)
		return overlay.NodeResult{}, fmt.Errorf("runtime: start peer %d did not accept the query: %w", start, err)
	}
	select {
	case out := <-reply:
		if out.err != nil {
			rt.collector.Take(id)
			return overlay.NodeResult{}, out.err
		}
		if span != nil {
			rt.gatherTrace(span, rootSpanID, id, out.res.Hops)
		}
		return out.res, nil
	case <-time.After(timeout):
		rt.dropPendingNode(id)
		rt.collector.Take(id)
		rt.fl().Anomaly(anomalyQueryTO, start, -1, fmt.Sprintf("node query l=%v after %v", l, timeout))
		return overlay.NodeResult{}, fmt.Errorf("runtime: node query timed out after %v", timeout)
	}
}

// dropPendingNode abandons a pending node-search reply; a late answer
// then finds no entry and is discarded.
func (rt *Runtime) dropPendingNode(id uint64) {
	rt.pendMu.Lock()
	defer rt.pendMu.Unlock()
	delete(rt.pendNode, id)
	rt.updatePendingGaugeLocked()
}

// resolveNode completes the pending node search a routed result answers;
// duplicate or late answers are idempotently ignored.
func (rt *Runtime) resolveNode(r *transport.NodeResult) {
	if r == nil {
		return
	}
	rt.pendMu.Lock()
	e, ok := rt.pendNode[r.ID]
	delete(rt.pendNode, r.ID)
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	if !ok {
		return
	}
	e.ch <- nodeOutcome{res: overlay.NodeResult{Node: r.Node, Radius: r.Radius, Hops: r.Hops, Answered: r.Answered}}
}

// handleNodeQuery executes one hill-climbing step at this peer
// (overlay's Peer.ClimbHop). ht is the hop's trace state (nil when
// untraced).
func (p *peer) handleNodeQuery(q *transport.NodeQuery, ht *hopTrace) {
	p.mu.Lock()
	var next int
	q.BestNode, q.BestRadius, next = p.core.ClimbHop(p.rt.table.Load(), q.Set, q.Prev, q.BestNode, q.BestRadius)
	p.mu.Unlock()

	if next == -1 || q.Hops >= maxQueryHops {
		ht.setNote("answered")
		p.answerNodeQuery(q, ht)
		p.finishHop(ht, "nodequery")
		return
	}
	ht.setNote("forward")
	fwd := *q
	fwd.Prev = p.id
	fwd.Hops++
	// Copy the set so the forwarded message shares no backing array with
	// this delivery.
	fwd.Set = append([]int(nil), q.Set...)
	p.forwardNodeQuery(next, &fwd, ht)
	p.finishHop(ht, "nodequery")
}

// answerNodeQuery routes the search's answer back to its origin peer
// (Node -1 when no candidate satisfies the constraint), carrying the
// trace context so the origin can time the return leg.
func (p *peer) answerNodeQuery(q *transport.NodeQuery, ht *hopTrace) {
	res := &transport.NodeResult{ID: q.ID, Node: q.BestNode, Radius: q.BestRadius, Hops: q.Hops, Answered: p.id}
	if q.BestNode < 0 || q.BestRadius > q.L {
		res = &transport.NodeResult{ID: q.ID, Node: -1, Hops: q.Hops, Answered: p.id}
	}
	p.rt.sendAsync(transport.Message{Kind: transport.KindNodeResult, From: p.id, To: q.Origin, NodeResult: res, Trace: ht.back()})
}

// forwardNodeQuery passes the search to the next peer from a helper
// goroutine; if the transport rejects the forward (next is dead and
// unrouted), the search fails over to a not-found answer.
func (p *peer) forwardNodeQuery(next int, fwd *transport.NodeQuery, ht *hopTrace) {
	from := p.id
	tc := ht.next()
	p.rt.wg.Add(1)
	go func() {
		defer p.rt.wg.Done()
		if p.rt.tr.Send(transport.Message{Kind: transport.KindNodeQuery, From: from, To: next, NodeQuery: fwd, Trace: tc}) == nil {
			return
		}
		res := &transport.NodeResult{ID: fwd.ID, Node: -1, Hops: fwd.Hops, Answered: from}
		_ = p.rt.tr.Send(transport.Message{Kind: transport.KindNodeResult, From: from, To: fwd.Origin, NodeResult: res, Trace: tc})
	}()
}
