package runtime

import (
	"fmt"

	"bwcluster/internal/overlay"
)

// RemoveHost simulates a peer crash: the peer's goroutine is stopped, the
// overlay splices its neighbors to its lowest-id neighbor (overlay's
// Peer.Splice, the rule overlay.Network.RemoveHost applies too), and
// every survivor's aggregation state is purged — gossip
// rebuilds it within a few ticks. Queries in flight toward the dead peer
// fail over to a not-found reply; queries the dead peer itself originated
// are canceled immediately with ErrOriginRemoved, so their callers fail
// fast rather than blocking out their timeout on an answer that can no
// longer be delivered.
func (rt *Runtime) RemoveHost(h int) error {
	if err := rt.spliceOutHost(h); err != nil {
		return err
	}
	// Unregister from the transport so in-flight forwards blocked toward
	// the dead peer release with an error and fail over.
	_ = rt.tr.Unregister(h)
	rt.cancelPendingFor(h)
	if tk := rt.Membership(); tk != nil {
		_ = tk.NoteFail(h, rt.ticks.Load()) // a removal models a crash
	}
	mHostsRemoved.Inc()
	return nil
}

// spliceOutHost is RemoveHost's locked half: it drops the peer, splices
// its neighbors to the hub, purges survivor aggregation state, and stops
// the dead peer's goroutine — all under rt.mu.
func (rt *Runtime) spliceOutHost(h int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, ok := rt.peers[h]
	if !ok {
		return fmt.Errorf("runtime: unknown host %d", h)
	}
	if len(rt.peers) == 1 {
		return fmt.Errorf("runtime: cannot remove the last host")
	}
	delete(rt.peers, h)

	p.mu.Lock()
	neighbors := p.core.Neighbors()
	p.mu.Unlock()

	now := rt.ticks.Load()
	var survivors []int
	for _, nb := range neighbors {
		if _, alive := rt.peers[nb]; alive {
			survivors = append(survivors, nb)
		}
	}
	for _, nb := range survivors {
		q := rt.peers[nb]
		q.mu.Lock()
		// Drop the dead link's gossip-age watermark — it would otherwise
		// age without bound and keep the health gauge pinned stale.
		delete(q.lastGossip, h)
		for _, v := range q.core.Splice(h, survivors) {
			q.lastGossip[v] = now // fresh link; age from now
		}
		q.mu.Unlock()
	}
	// Purge every survivor's aggregation state: entries anywhere may
	// transitively contain the dead host.
	for _, q := range rt.peers {
		q.mu.Lock()
		q.core.Reset()
		q.mu.Unlock()
	}
	rt.version.Add(1)

	// Stop the dead peer's goroutine (idempotent with Stop). Closing the
	// channel never blocks, so doing it under rt.mu is safe.
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	return nil
}

// RemovableSubstrate is a substrate that supports host eviction with
// incremental repair (predtree.Tree and predtree.Forest qualify).
type RemovableSubstrate interface {
	overlay.Substrate
	Remove(h int) error
}

// EvictHost removes host h from the membership: unlike RemoveHost — which
// models a crash and leaves the substrate untouched — eviction repairs
// the prediction substrate incrementally (predtree.Tree.Remove), swaps in
// a fresh distance snapshot, and re-derives every surviving peer's
// overlay adjacency from the repaired anchor tree instead of splicing.
// Survivors' aggregation state is purged (it may transitively contain the
// departed host) and gossip rebuilds it; watermarks for surviving links
// keep their ages, new links age from now. Pending queries the evicted
// host originated are canceled with ErrOriginRemoved. It fails if the
// substrate the runtime was built on does not support removal.
func (rt *Runtime) EvictHost(h int) error {
	dyn, ok := rt.sub.(RemovableSubstrate)
	if !ok {
		return fmt.Errorf("runtime: substrate %T does not support eviction", rt.sub)
	}
	if err := rt.repairOutHost(dyn, h); err != nil {
		return err
	}
	_ = rt.tr.Unregister(h)
	rt.cancelPendingFor(h)
	if tk := rt.Membership(); tk != nil {
		// A graceful leave — unless the tracker already declared the host
		// dead (auto-eviction path), in which case this is a no-op error.
		_ = tk.NoteLeave(h, rt.ticks.Load())
	}
	mHostsEvicted.Inc()
	return nil
}

// repairOutHost is EvictHost's locked half: it removes h from the
// substrate, refreshes the distance snapshot, re-derives every survivor's
// adjacency from the repaired anchor tree, and stops the departed peer's
// goroutine — all under rt.mu.
func (rt *Runtime) repairOutHost(dyn RemovableSubstrate, h int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, ok := rt.peers[h]
	if !ok {
		return fmt.Errorf("runtime: unknown host %d", h)
	}
	if len(rt.peers) == 1 {
		return fmt.Errorf("runtime: cannot evict the last host")
	}
	if err := dyn.Remove(h); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	delete(rt.peers, h)

	rt.table.Store(overlay.NewDist(rt.sub, 0))

	now := rt.ticks.Load()
	for id, q := range rt.peers {
		nb := rt.sub.AnchorNeighbors(id)
		q.mu.Lock()
		last := make(map[int]uint64, len(nb))
		for _, v := range nb {
			if ts, ok := q.lastGossip[v]; ok {
				last[v] = ts
			} else {
				last[v] = now
			}
		}
		q.core = overlay.NewPeer(id, nb)
		q.lastGossip = last
		q.mu.Unlock()
	}
	rt.version.Add(1)

	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	return nil
}

// cancelPendingFor resolves every pending query originated by host h with
// ErrOriginRemoved. Each entry is deleted under the lock before its
// (buffered) channel is written, so the write can never race a routed
// resolution or block.
func (rt *Runtime) cancelPendingFor(h int) {
	var cls []chan clusterOutcome
	var nds []chan nodeOutcome
	rt.pendMu.Lock()
	for id, e := range rt.pendCluster {
		if e.origin == h {
			delete(rt.pendCluster, id)
			cls = append(cls, e.ch)
		}
	}
	for id, e := range rt.pendNode {
		if e.origin == h {
			delete(rt.pendNode, id)
			nds = append(nds, e.ch)
		}
	}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	if len(cls) == 0 && len(nds) == 0 {
		return
	}
	err := fmt.Errorf("runtime: host %d: %w", h, ErrOriginRemoved)
	for _, ch := range cls {
		ch <- clusterOutcome{err: err}
		mPendCanceled.Inc()
	}
	for _, ch := range nds {
		ch <- nodeOutcome{err: err}
		mPendCanceled.Inc()
	}
}
