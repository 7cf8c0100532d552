package runtime

import (
	"fmt"
	"time"

	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// Query submits a (k, l) query to the given start peer and waits up to
// timeout for the network to answer. The query travels peer-to-peer as
// messages, exactly like Algorithm 4; the answer comes back as a routed
// result message addressed to the start peer, so the whole round trip
// works even when intermediate peers live in other processes. The start
// peer must be hosted by this runtime.
func (rt *Runtime) Query(start, k int, l float64, timeout time.Duration) (overlay.Result, error) {
	return rt.QueryTraced(start, k, l, timeout, nil)
}

// QueryTraced is Query with distributed tracing: when span is non-nil,
// the query carries a trace context across every hop — including hops
// executed by peers in other processes — and each hop's span event is
// reported back to this runtime, reassembled into span's tree after the
// answer arrives (hop spans carry host, peer, hop index, queue wait;
// dropped reports appear as explicit "gap" spans). A nil span runs the
// exact untraced path: no context on the wire, no events, no waits.
func (rt *Runtime) QueryTraced(start, k int, l float64, timeout time.Duration, span *telemetry.Span) (overlay.Result, error) {
	if p := rt.peerByID(start); p == nil {
		return overlay.Result{}, fmt.Errorf("runtime: unknown start host %d", start)
	}
	if k < 2 {
		return overlay.Result{}, fmt.Errorf("runtime: size constraint k must be >= 2, got %d", k)
	}
	classL, classIdx, err := rt.cfg.ClassFor(l)
	if err != nil {
		return overlay.Result{}, err
	}
	id := rt.qid.Add(1)
	q := &transport.Query{ID: id, Origin: start, K: k, ClassIdx: classIdx, ClassL: classL, Prev: -1}
	m, err := rt.request(transport.Message{Kind: transport.KindQuery, From: -1, To: start, Query: q}, id, span, timeout)
	if err != nil {
		return overlay.Result{}, err
	}
	r := m.Result
	mRuntimeQueryHops.Observe(float64(r.Hops))
	return overlay.Result{Cluster: r.Cluster, Hops: r.Hops, Answered: r.Answered, Class: r.Class, Path: r.Path}, nil
}

// handleQuery runs one Algorithm 4 step at this peer (overlay's
// Peer.QueryHop): answer locally if the local search finds a cluster,
// otherwise forward toward a promising neighbor, otherwise report
// failure. ht is the hop's trace state (nil when untraced); the span
// event is reported when the step concludes.
func (p *peer) handleQuery(q *transport.Query, ht *hopTrace) {
	q.Path = append(q.Path, p.id)
	p.mu.Lock()
	d := p.rt.table.Load()
	p.refreshSelfCRTLocked(d)
	// A local-search error leaves no members and no next hop, so the
	// peer answers not-found.
	step, _ := p.core.QueryHop(d, q.K, q.ClassIdx, q.ClassL, q.Prev)
	p.mu.Unlock()

	switch {
	case step.Members != nil:
		ht.setNote("answered")
		p.rt.sendAsync(p.clusterAnswer(q, step.Members, ht.onward()))
	case step.Next != -1 && q.Hops < maxQueryHops:
		ht.setNote("forward")
		fwd := *q
		fwd.Prev = p.id
		fwd.Hops++
		// Copy the path: the forwarded message and this peer's local view
		// must not share a backing array across goroutines.
		fwd.Path = append([]int(nil), q.Path...)
		tc := ht.onward()
		p.forward(transport.Message{Kind: transport.KindQuery, From: p.id, To: step.Next, Query: &fwd, Trace: tc},
			p.clusterAnswer(&fwd, nil, tc))
	default:
		ht.setNote("notfound")
		p.rt.sendAsync(p.clusterAnswer(q, nil, ht.onward()))
	}
	p.finishHop(ht, "query")
}

// clusterAnswer is this peer's answer to q (members nil: not found),
// routed to q's origin with trace context tc, which lets the origin
// time the return leg.
func (p *peer) clusterAnswer(q *transport.Query, members []int, tc *transport.TraceContext) transport.Message {
	res := &transport.Result{ID: q.ID, Cluster: members, Hops: q.Hops, Answered: p.id, Class: q.ClassL, Path: q.Path}
	return transport.Message{Kind: transport.KindResult, From: p.id, To: q.Origin, Result: res, Trace: tc}
}

// DynamicSubstrate is a substrate that accepts new hosts (both
// predtree.Tree and predtree.Forest qualify).
type DynamicSubstrate interface {
	overlay.Substrate
	Add(h int, o predtree.Oracle) error
}

// AddHost inserts a new host into the runtime's substrate, wires a peer
// for it, and refreshes the adjacency of peers whose neighbor sets
// changed (its anchor gains a child). The new peer starts gossiping
// immediately; call Settle to wait for the state to re-converge. It fails
// if the substrate the runtime was built on does not support growth.
func (rt *Runtime) AddHost(h int, o predtree.Oracle) error {
	dyn, ok := rt.sub.(DynamicSubstrate)
	if !ok {
		return fmt.Errorf("runtime: substrate %T does not support adding hosts", rt.sub)
	}
	if err := dyn.Add(h, o); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	tbl := overlay.NewDist(rt.sub, 0)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.table.Store(tbl)
	nb := rt.sub.AnchorNeighbors(h)
	p, err := rt.newPeer(h, nb)
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	rt.peers[h] = p
	// The anchor parent gained a neighbor.
	now := rt.ticks.Load()
	for _, other := range nb {
		if q := rt.peers[other]; q != nil {
			q.mu.Lock()
			q.core.Link(h)
			q.lastGossip[h] = now // fresh link; age the watermark from now
			q.mu.Unlock()
			rt.version.Add(1)
		}
	}
	rt.wg.Add(1)
	go p.run()
	if tk := rt.Membership(); tk != nil {
		_ = tk.NoteJoin(h, now)
	}
	return nil
}
