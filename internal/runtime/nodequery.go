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
	q := &transport.NodeQuery{
		ID:         id,
		Origin:     start,
		Set:        append([]int(nil), set...),
		L:          l,
		BestNode:   -1,
		BestRadius: math.Inf(1),
		Prev:       -1,
	}
	m, err := rt.request(transport.Message{Kind: transport.KindNodeQuery, From: -1, To: start, NodeQuery: q}, id, span, timeout)
	if err != nil {
		return overlay.NodeResult{}, err
	}
	r := m.NodeResult
	return overlay.NodeResult{Node: r.Node, Radius: r.Radius, Hops: r.Hops, Answered: r.Answered}, nil
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
		node, radius := q.BestNode, q.BestRadius
		if node < 0 || radius > q.L {
			node, radius = -1, 0
		}
		p.rt.sendAsync(p.nodeAnswer(q, node, radius, ht.onward()))
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
	tc := ht.onward()
	p.forward(transport.Message{Kind: transport.KindNodeQuery, From: p.id, To: next, NodeQuery: &fwd, Trace: tc},
		p.nodeAnswer(&fwd, -1, 0, tc))
	p.finishHop(ht, "nodequery")
}

// nodeAnswer is this peer's answer to q (node -1: none satisfies the
// constraint), routed to q's origin with trace context tc, which lets
// the origin time the return leg.
func (p *peer) nodeAnswer(q *transport.NodeQuery, node int, radius float64, tc *transport.TraceContext) transport.Message {
	res := &transport.NodeResult{ID: q.ID, Node: node, Radius: radius, Hops: q.Hops, Answered: p.id}
	return transport.Message{Kind: transport.KindNodeResult, From: p.id, To: q.Origin, NodeResult: res, Trace: tc}
}
