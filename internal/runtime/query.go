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
	reply := make(chan clusterOutcome, replyCapacity)
	rt.pendMu.Lock()
	rt.pendCluster[id] = pendingCluster{ch: reply, origin: start, born: rt.ticks.Load()}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	var tc *transport.TraceContext
	var rootSpanID uint64
	if span != nil {
		rootSpanID = rt.mintSpanID(start)
		tc = &transport.TraceContext{TraceID: id, ParentSpan: rootSpanID, Origin: start, SentUnixNano: traceNow()}
	}
	q := &transport.Query{ID: id, Origin: start, K: k, ClassIdx: classIdx, ClassL: classL, Prev: -1}
	if err := rt.tr.Send(transport.Message{Kind: transport.KindQuery, From: -1, To: start, Query: q, Trace: tc}); err != nil {
		rt.dropPendingCluster(id)
		return overlay.Result{}, fmt.Errorf("runtime: start peer %d did not accept the query: %w", start, err)
	}
	select {
	case out := <-reply:
		if out.err != nil {
			rt.collector.Take(id)
			return overlay.Result{}, out.err
		}
		res := out.res
		mRuntimeQueryHops.Observe(float64(res.Hops))
		if span != nil {
			rt.gatherTrace(span, rootSpanID, id, res.Hops)
		}
		return res, nil
	case <-time.After(timeout):
		rt.dropPendingCluster(id)
		rt.collector.Take(id)
		rt.fl().Anomaly(anomalyQueryTO, start, -1, fmt.Sprintf("cluster query k=%d l=%v after %v", k, l, timeout))
		return overlay.Result{}, fmt.Errorf("runtime: query (k=%d, l=%v) timed out after %v", k, l, timeout)
	}
}

// dropPendingCluster abandons a pending cluster reply; a late answer
// then finds no entry and is discarded.
func (rt *Runtime) dropPendingCluster(id uint64) {
	rt.pendMu.Lock()
	defer rt.pendMu.Unlock()
	delete(rt.pendCluster, id)
	rt.updatePendingGaugeLocked()
}

// resolveCluster completes the pending query a routed result answers.
// The reply channel is buffered and the entry is removed on first
// resolution, so duplicated result deliveries (fault injection, at-least
// -once callers) are idempotently ignored and never block a peer loop.
func (rt *Runtime) resolveCluster(r *transport.Result) {
	if r == nil {
		return
	}
	rt.pendMu.Lock()
	e, ok := rt.pendCluster[r.ID]
	delete(rt.pendCluster, r.ID)
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	if !ok {
		return // duplicate, late, or foreign answer
	}
	e.ch <- clusterOutcome{res: overlay.Result{Cluster: r.Cluster, Hops: r.Hops, Answered: r.Answered, Class: r.Class, Path: r.Path}}
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
		p.answerQuery(q, step.Members, ht)
	case step.Next != -1 && q.Hops < maxQueryHops:
		ht.setNote("forward")
		fwd := *q
		fwd.Prev = p.id
		fwd.Hops++
		// Copy the path: the forwarded message and this peer's local view
		// must not share a backing array across goroutines.
		fwd.Path = append([]int(nil), q.Path...)
		p.forwardQuery(step.Next, &fwd, ht)
	default:
		ht.setNote("notfound")
		p.answerQuery(q, nil, ht)
	}
	p.finishHop(ht, "query")
}

// answerQuery routes the query's answer back to its origin peer as a
// result message (members nil: not found), carrying the trace context
// so the origin can time the return leg.
func (p *peer) answerQuery(q *transport.Query, members []int, ht *hopTrace) {
	res := &transport.Result{ID: q.ID, Cluster: members, Hops: q.Hops, Answered: p.id, Class: q.ClassL, Path: q.Path}
	p.rt.sendAsync(transport.Message{Kind: transport.KindResult, From: p.id, To: q.Origin, Result: res, Trace: ht.back()})
}

// forwardQuery passes the query to the next peer from a helper goroutine
// so a full inbox cannot stall this peer's main loop. If the transport
// rejects the forward (next is dead and unrouted), the query fails over
// to a not-found answer from this peer, preserving the pre-transport
// crash semantics.
func (p *peer) forwardQuery(next int, fwd *transport.Query, ht *hopTrace) {
	from := p.id
	tc := ht.next()
	p.rt.wg.Add(1)
	go func() {
		defer p.rt.wg.Done()
		if p.rt.tr.Send(transport.Message{Kind: transport.KindQuery, From: from, To: next, Query: fwd, Trace: tc}) == nil {
			return
		}
		res := &transport.Result{ID: fwd.ID, Hops: fwd.Hops, Answered: from, Class: fwd.ClassL, Path: fwd.Path}
		_ = p.rt.tr.Send(transport.Message{Kind: transport.KindResult, From: from, To: fwd.Origin, Result: res, Trace: tc})
	}()
}

// maxQueryHops is a safety bound against routing on inconsistent
// (not-yet-settled) CRTs; the overlay is a tree, so settled routing never
// gets near it.
const maxQueryHops = 10000

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
