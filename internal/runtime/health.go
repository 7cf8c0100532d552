package runtime

import (
	"sync/atomic"
	"time"
)

// Overlay health monitoring. The runtime keeps a logical tick counter —
// advanced by a monitor goroutine at the gossip tick rate — and derives
// every health signal from it: per-peer gossip-age watermarks (ticks
// since a neighbor's gossip last arrived), a convergence monitor (the
// version counter quiet for a full watermark window), and the pending
// -reply sweep. Expressing ages and TTLs in ticks instead of wall time
// keeps the logic deterministic under bwc-vet's rules: tests drive
// sweepPendingAt/refreshHealthAt directly with synthetic tick values
// (the injected clock) and never sleep.
const (
	// pendTTLTicks is the sweep TTL for pending-reply entries. Callers
	// always drop their own entry on timeout, so the sweep is defense in
	// depth against leaked entries (e.g. an abandoned caller goroutine);
	// the TTL is far above any sane query timeout in ticks.
	pendTTLTicks = 5000
	// convergedQuietTicks is how long the version counter must stay
	// unchanged before the network counts as converged.
	convergedQuietTicks = 25
	// staleTicks is the gossip-age watermark above which a peer's
	// neighbor link counts as stale (flight-recorded once per episode).
	staleTicks = 500
)

// Health is a point-in-time summary of the runtime's operational state,
// served by bwc-serve's /v1/health.
type Health struct {
	// Hosts is the number of locally hosted peers.
	Hosts int `json:"hosts"`
	// Converged reports whether gossip has been quiet for the
	// convergence window — readiness, answered truthfully.
	Converged bool `json:"converged"`
	// MaxGossipAgeTicks is the worst per-neighbor gossip-age watermark
	// across local peers, in ticks (0 with no peers or no neighbors).
	MaxGossipAgeTicks uint64 `json:"maxGossipAgeTicks"`
	// PendingReplies is the current pending-reply-table population.
	PendingReplies int `json:"pendingReplies"`
	// TraceBacklog is the number of traces awaiting assembly.
	TraceBacklog int `json:"traceBacklog"`
	// Ticks is the monitor's logical clock reading.
	Ticks uint64 `json:"ticks"`
}

// Health returns the current health summary.
func (rt *Runtime) Health() Health {
	now := rt.ticks.Load()
	return Health{
		Hosts:             len(rt.Hosts()),
		Converged:         rt.converged.Load(),
		MaxGossipAgeTicks: rt.maxGossipAge(now),
		PendingReplies:    rt.pendingReplies(),
		TraceBacklog:      rt.collector.Len(),
		Ticks:             now,
	}
}

// Converged reports whether gossip has settled per the convergence
// monitor (version counter quiet for convergedQuietTicks).
func (rt *Runtime) Converged() bool { return rt.converged.Load() }

// pendingReplies returns the pending-reply-table population.
func (rt *Runtime) pendingReplies() int {
	rt.pendMu.Lock()
	defer rt.pendMu.Unlock()
	return len(rt.pendCluster) + len(rt.pendNode)
}

// updatePendingGaugeLocked mirrors the table population into the
// exposition gauge. Caller holds pendMu.
func (rt *Runtime) updatePendingGaugeLocked() {
	mPendingReplies.Set(float64(len(rt.pendCluster) + len(rt.pendNode)))
}

// maxGossipAge returns the worst ticks-since-last-gossip over every
// (local peer, neighbor) link at logical time now.
func (rt *Runtime) maxGossipAge(now uint64) uint64 {
	rt.mu.Lock()
	peers := make([]*peer, 0, len(rt.peers))
	for _, p := range rt.peers {
		peers = append(peers, p)
	}
	rt.mu.Unlock()
	var worst uint64
	for _, p := range peers {
		p.mu.Lock()
		for _, last := range p.lastGossip {
			// A gossip handled after now was read is fresher than now,
			// not 2^64 ticks old.
			if last < now && now-last > worst {
				worst = now - last
			}
		}
		p.mu.Unlock()
	}
	return worst
}

// monitor is the health goroutine: it advances the logical tick clock
// at the gossip tick rate and runs the sweep and gauge refresh on each
// tick, until Stop.
func (rt *Runtime) monitor() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.tick)
	defer ticker.Stop()
	for {
		select {
		case <-rt.monStop:
			return
		case <-ticker.C:
			now := rt.ticks.Add(1)
			rt.sweepPendingAt(now)
			rt.refreshHealthAt(now)
			rt.membershipScanAt(now)
			rt.rollLedgerAt(now)
		}
	}
}

// sweepPendingAt deletes pending-reply entries older than the TTL at
// logical time now. A swept entry is a leak — the submitting caller
// should have dropped it on its own timeout — so each one fires an
// anomaly with the query id. Deterministic: pure function of the
// tables, now, and the TTL.
func (rt *Runtime) sweepPendingAt(now uint64) {
	type leak struct {
		id   uint64
		kind string
	}
	var leaks []leak
	rt.pendMu.Lock()
	for id, e := range rt.pendCluster {
		if now-e.born > pendTTLTicks {
			delete(rt.pendCluster, id)
			leaks = append(leaks, leak{id, "cluster"})
		}
	}
	for id, e := range rt.pendNode {
		if now-e.born > pendTTLTicks {
			delete(rt.pendNode, id)
			leaks = append(leaks, leak{id, "node"})
		}
	}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()
	for _, l := range leaks {
		mPendSwept.Inc()
		rt.fl().Anomaly(anomalyPendLeak, -1, -1, l.kind+" query id="+itoa(int(l.id))+" swept")
	}
}

// refreshHealthAt recomputes the convergence monitor and the gossip-age
// watermark gauges at logical time now, flight-recording the first tick
// of each staleness episode.
func (rt *Runtime) refreshHealthAt(now uint64) {
	v := rt.Version()
	if v != rt.monLastVersion.Load() {
		rt.monLastVersion.Store(v)
		rt.monLastChange.Store(now)
	}
	quiet := now - rt.monLastChange.Load()
	conv := quiet >= convergedQuietTicks && now >= convergedQuietTicks
	rt.converged.Store(conv)
	if conv {
		mConverged.Set(1)
	} else {
		mConverged.Set(0)
	}
	age := rt.maxGossipAge(now)
	mGossipAge.Set(float64(age))
	stale := age >= staleTicks
	if stale && !rt.monStale.Swap(true) {
		rt.fl().Record(flightStale, -1, -1, "max gossip age "+itoa(int(age))+" ticks")
	} else if !stale {
		rt.monStale.Store(false)
	}
}

// Ticks returns the monitor's logical clock (ticks since Start).
func (rt *Runtime) Ticks() uint64 { return rt.ticks.Load() }

// monitorState is embedded in Runtime: the logical tick clock plus the
// convergence/staleness flags. Updated by the monitor goroutine (and by
// tests injecting synthetic ticks), read by Health callers, hence the
// atomics.
type monitorState struct {
	ticks          atomic.Uint64
	converged      atomic.Bool
	monLastVersion atomic.Int64
	monLastChange  atomic.Uint64
	monStale       atomic.Bool
}
