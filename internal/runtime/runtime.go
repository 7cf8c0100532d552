// Package runtime runs the clustering protocol asynchronously: one
// goroutine per peer, periodic (tick-driven) execution of Algorithms 2
// and 3, and message-forwarded queries (Algorithm 4). It exists to
// validate that the protocol — whose correctness the synchronous engine
// in package overlay establishes against Theorems 3.2/3.3 — also
// converges under real message passing with arbitrary interleavings,
// and to power the livenet example.
//
// All message movement goes through a transport.Transport. By default
// (New) the runtime owns an in-process channel transport that preserves
// the original inbox behavior exactly; NewWithTransport accepts any
// other backend — the deterministic fault injector, real TCP sockets —
// and an optional subset of peers to host locally, which is what allows
// one protocol network to span several processes.
//
// The protocol rules themselves are not here: every peer's state is an
// overlay.Peer, and the runtime drives overlay's rules (Algorithm 2/3
// messages, the self CRT, the Algorithm 4 and hill-climb steps, the
// splice) exactly as overlay.Network does, adding only what asynchrony
// needs — locking, transport sends, loss injection, gossip-age
// watermarks, version bookkeeping, tracing and reply tables. A settled
// Runtime therefore reaches exactly the fixed point overlay.Network
// computes and answers queries along the same routes; the cross-engine
// tests assert the fixed point over every transport backend.
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bwcluster/internal/lockcheck"
	"bwcluster/internal/overlay"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

const (
	defaultTick   = 2 * time.Millisecond
	inboxCapacity = transport.DefaultInboxCapacity
	replyCapacity = 1
)

// Runtime hosts asynchronous peers on top of a message transport. In the
// default single-process configuration it hosts every substrate host; a
// runtime built with NewWithTransport may host only a subset, with the
// rest reached through the transport's routing (e.g. TCP peers in
// another process).
type Runtime struct {
	cfg     overlay.Config
	sub     overlay.Substrate
	tick    time.Duration
	tr      transport.Transport
	ownsTr  bool // Close the transport on Stop
	table   atomic.Pointer[overlay.Dist]
	version atomic.Int64 // bumped on every peer state change

	// Traffic counters (delivered messages by kind).
	nodeInfoMsgs atomic.Int64
	crtMsgs      atomic.Int64
	queryMsgs    atomic.Int64

	// Pending query replies, keyed by the query id minted at submission.
	// Answers arrive as routed messages (transport.KindResult and
	// KindNodeResult) at the origin peer, which resolves them here;
	// duplicate or late answers find no entry and are dropped. Entries
	// record their birth tick so the health monitor's sweep can prove
	// the tables bounded even if a caller leaks its entry.
	qid         atomic.Uint64
	pendMu      lockcheck.Mutex
	pendCluster map[uint64]pendingCluster // guarded by pendMu
	pendNode    map[uint64]pendingNode    // guarded by pendMu

	// Distributed tracing: per-runtime span-id sequence and the origin
	// -side collector reassembling reported hop events.
	spanSeq   atomic.Uint64
	collector *telemetry.TraceCollector

	// Optional liveness tracking: set by AttachMembership, scanned by
	// the monitor each tick.
	memb atomic.Pointer[memberScan]

	// Observability plumbing: the optional flight recorder, the
	// optional bandwidth ledger, and the health monitor's logical
	// clock + flags.
	flight atomic.Pointer[telemetry.FlightRecorder]
	ledgerState
	monitorState
	monStop chan struct{}
	monOnce sync.Once

	mu    lockcheck.Mutex
	peers map[int]*peer // guarded by mu
	wg    sync.WaitGroup
}

// ErrOriginRemoved is the failure pending queries resolve with when
// their origin host is removed (crash or eviction) while the answer is
// still in flight: the reply would be routed to a dead peer, so the
// caller fails fast instead of blocking until its timeout.
var ErrOriginRemoved = errors.New("runtime: origin host removed")

// clusterOutcome is what a pending cluster query resolves with: an
// answer, or an error when the query was canceled (origin removed).
type clusterOutcome struct {
	res overlay.Result
	err error
}

// nodeOutcome is the node-search counterpart of clusterOutcome.
type nodeOutcome struct {
	res overlay.NodeResult
	err error
}

// pendingCluster is one in-flight cluster query's reply slot.
type pendingCluster struct {
	ch     chan clusterOutcome
	origin int    // start host the answer is routed to
	born   uint64 // monitor tick at submission
}

// pendingNode is one in-flight node search's reply slot.
type pendingNode struct {
	ch     chan nodeOutcome
	origin int    // start host the answer is routed to
	born   uint64 // monitor tick at submission
}

// Traffic reports how many messages of each kind have been delivered.
func (rt *Runtime) Traffic() (nodeInfo, crt, queries int64) {
	return rt.nodeInfoMsgs.Load(), rt.crtMsgs.Load(), rt.queryMsgs.Load()
}

type peer struct {
	id   int
	rt   *Runtime
	recv <-chan transport.Message
	stop chan struct{}
	done chan struct{}

	mu         lockcheck.Mutex
	core       *overlay.Peer  // guarded by mu; the protocol state and rules
	lastGossip map[int]uint64 // guarded by mu; monitor tick of each neighbor's last gossip
}

// New builds a runtime hosting every host in the substrate (a prediction
// tree or forest) over an internally owned in-process channel transport.
// Start must be called to launch the peers; Stop shuts them down.
func New(sub overlay.Substrate, cfg overlay.Config, tick time.Duration) (*Runtime, error) {
	return NewWithTransport(sub, nil, cfg, tick, nil, nil)
}

// NewWithTransport builds a runtime over an explicit transport, hosting
// only the given local hosts (nil: every substrate host). The peers read
// d, a snapshot of sub's predicted distances that the runtime shares and
// never writes; a nil d means a fresh snapshot of sub. A nil tr means
// an internally owned channel transport. The substrate must describe the
// whole network — including hosts served by other processes — so every
// runtime derives the same overlay topology; remote peers are reached
// through the transport's routing. The runtime closes tr on Stop only
// when it created it.
func NewWithTransport(sub overlay.Substrate, d *overlay.Dist, cfg overlay.Config, tick time.Duration, tr transport.Transport, local []int) (*Runtime, error) {
	if sub == nil || sub.Len() == 0 {
		return nil, fmt.Errorf("runtime: empty prediction substrate")
	}
	if tick <= 0 {
		tick = defaultTick
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	owns := false
	if tr == nil {
		tr = transport.NewChan(inboxCapacity)
		owns = true
	}
	rt := &Runtime{
		cfg:         cfg,
		sub:         sub,
		tick:        tick,
		tr:          tr,
		ownsTr:      owns,
		peers:       make(map[int]*peer, sub.Len()),
		pendCluster: make(map[uint64]pendingCluster),
		pendNode:    make(map[uint64]pendingNode),
		collector:   telemetry.NewTraceCollector(0),
		monStop:     make(chan struct{}),
	}
	// Class names feed the lockcheck build's shadow order graph; they
	// mirror the lock classes bwc-vet's static lockorder check derives.
	rt.mu.SetClass("runtime.Runtime.mu")
	rt.pendMu.SetClass("runtime.Runtime.pendMu")
	if d == nil {
		d = overlay.NewDist(sub, 0)
	}
	rt.table.Store(d)
	if local == nil {
		local = sub.Hosts()
	}
	for _, h := range local {
		if !d.Has(h) {
			rt.closeOwnedTransport()
			return nil, fmt.Errorf("runtime: local host %d is not in the substrate", h)
		}
		p, err := rt.newPeer(h, sub.AnchorNeighbors(h))
		if err != nil {
			rt.closeOwnedTransport()
			return nil, fmt.Errorf("runtime: %w", err)
		}
		rt.peers[h] = p
	}
	return rt, nil
}

// closeOwnedTransport closes the transport if this runtime created it
// (constructor error paths and Stop).
func (rt *Runtime) closeOwnedTransport() {
	if rt.ownsTr {
		_ = rt.tr.Close()
	}
}

// newPeer registers id with the transport and builds its peer over the
// given anchor-tree neighbors.
func (rt *Runtime) newPeer(id int, neighbors []int) (*peer, error) {
	recv, err := rt.tr.Register(id)
	if err != nil {
		return nil, err
	}
	last := make(map[int]uint64, len(neighbors))
	now := rt.ticks.Load()
	for _, v := range neighbors {
		last[v] = now // watermark ages start at peer creation, not tick zero
	}
	p := &peer{
		id:         id,
		rt:         rt,
		recv:       recv,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		core:       overlay.NewPeer(id, neighbors),
		lastGossip: last,
	}
	p.mu.SetClass("runtime.peer.mu")
	return p, nil
}

// Start launches every peer goroutine and the health monitor.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range rt.peers {
		rt.wg.Add(1)
		go p.run()
	}
	rt.wg.Add(1)
	go rt.monitor()
}

// Stop signals all peers to exit, unregisters them from the transport
// (releasing any in-flight forward blocked toward a full inbox), waits
// for every runtime goroutine, and closes the transport if this runtime
// owns it.
func (rt *Runtime) Stop() {
	rt.monOnce.Do(func() { close(rt.monStop) })
	rt.mu.Lock()
	ids := make([]int, 0, len(rt.peers))
	for id, p := range rt.peers {
		ids = append(ids, id)
		select {
		case <-p.stop:
		default:
			close(p.stop)
		}
	}
	rt.mu.Unlock()
	for _, id := range ids {
		_ = rt.tr.Unregister(id)
	}
	rt.wg.Wait()
	rt.closeOwnedTransport()
}

// Hosts returns the current locally hosted peer ids, sorted.
func (rt *Runtime) Hosts() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]int, 0, len(rt.peers))
	for id := range rt.peers {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Version returns the global state-change counter; it stops moving once
// gossip has settled.
func (rt *Runtime) Version() int64 { return rt.version.Load() }

// Settle blocks until no peer state has changed for the quiet duration,
// or fails after timeout.
//
// Settle is a wall-clock wait by design: it observes real time to decide
// when gossip has converged, and its only outputs are nil or a timeout
// error — no algorithm state derives from these clock reads, so the
// determinism suppressions below are sound.
func (rt *Runtime) Settle(quiet, timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //bwcvet:allow determinism wall-clock wait deadline; never feeds algorithm state
	last := rt.Version()
	lastChange := time.Now() //bwcvet:allow determinism wall-clock quiet-period tracking; never feeds algorithm state
	for {
		time.Sleep(rt.tick)
		if v := rt.Version(); v != last {
			last = v
			lastChange = time.Now() //bwcvet:allow determinism wall-clock quiet-period tracking; never feeds algorithm state
		} else if time.Since(lastChange) >= quiet { //bwcvet:allow determinism wall-clock quiet-period check; never feeds algorithm state
			return nil
		}
		if time.Now().After(deadline) { //bwcvet:allow determinism wall-clock timeout check; never feeds algorithm state
			rt.fl().Anomaly(anomalySettle, -1, -1, fmt.Sprintf("no fixed point within %v", timeout))
			return fmt.Errorf("runtime: gossip did not settle within %v", timeout)
		}
	}
}

func (rt *Runtime) peerByID(id int) *peer {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.peers[id]
}

// sendAsync delivers m from a runtime-tracked helper goroutine so a full
// destination inbox can never stall a peer main loop. The blocking send
// releases when the destination unregisters or the transport closes;
// Stop unregisters every local peer before waiting, so these helpers
// always terminate.
func (rt *Runtime) sendAsync(m transport.Message) {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		_ = rt.tr.Send(m)
	}()
}

// run is the peer main loop: handle delivered messages, gossip on ticks.
func (p *peer) run() {
	defer p.rt.wg.Done()
	defer close(p.done)
	ticker := time.NewTicker(p.rt.tick)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case m := <-p.recv:
			p.handle(m)
		case <-ticker.C:
			p.gossip()
		}
	}
}

func (p *peer) handle(m transport.Message) {
	mMessages.Inc(m.Kind.String())
	switch m.Kind {
	case transport.KindNodeInfo:
		p.rt.nodeInfoMsgs.Add(1)
		now := p.rt.ticks.Load()
		p.mu.Lock()
		p.heardLocked(m.From, now)
		if p.core.SetAggrNode(m.From, m.Nodes) {
			p.rt.version.Add(1)
		}
		p.mu.Unlock()
	case transport.KindCRT:
		p.rt.crtMsgs.Add(1)
		now := p.rt.ticks.Load()
		p.mu.Lock()
		p.heardLocked(m.From, now)
		if p.core.SetAggrCRT(m.From, m.CRT) {
			p.rt.version.Add(1)
		}
		p.mu.Unlock()
	case transport.KindQuery:
		if m.Query != nil {
			p.rt.queryMsgs.Add(1)
			p.handleQuery(m.Query, p.beginHop(m))
		}
	case transport.KindNodeQuery:
		if m.NodeQuery != nil {
			p.rt.queryMsgs.Add(1)
			p.handleNodeQuery(m.NodeQuery, p.beginHop(m))
		}
	case transport.KindResult:
		p.rt.noteReturnLeg(p.id, m.Trace, "result")
		p.rt.resolveCluster(m.Result)
	case transport.KindNodeResult:
		p.rt.noteReturnLeg(p.id, m.Trace, "noderesult")
		p.rt.resolveNode(m.NodeResult)
	case transport.KindTrace:
		p.rt.addTraceEvent(m.Event)
	case transport.KindSnapshot:
		// Snapshot streams are addressed to fleet replicator endpoints
		// (internal/fleet), never to protocol peers; a chunk that reaches
		// a peer anyway is a routing bug, not protocol state to act on.
		p.rt.fl().Record(flightStale, p.id, m.From, "snapshot chunk addressed to a protocol peer; dropped")
	}
}

// heardLocked refreshes the gossip watermark of neighbor from. Only a
// neighbor has one: a late message over a link a departure spliced away
// must not re-create the watermark, which would then never age out.
func (p *peer) heardLocked(from int, now uint64) {
	if _, ok := p.lastGossip[from]; ok {
		p.lastGossip[from] = now
	}
}

// gossip sends this round's Algorithm 2 and 3 messages to every neighbor,
// recomputing the local CRT first if the clustering space changed.
// Deliveries are best-effort (TrySend): gossip is periodic, so a message
// dropped on a full inbox — counted by the transport — is simply retried
// next tick.
func (p *peer) gossip() {
	p.mu.Lock()
	d := p.rt.table.Load()
	p.refreshSelfCRTLocked(d)
	neighbors := p.core.Neighbors()
	outs := make([]transport.Message, 0, 2*len(neighbors))
	for _, x := range neighbors {
		outs = append(outs,
			transport.Message{Kind: transport.KindNodeInfo, From: p.id, To: x, Nodes: p.core.PropNode(x, d, p.rt.cfg.NCut)},
			transport.Message{Kind: transport.KindCRT, From: p.id, To: x, CRT: p.core.PropCRT(x, len(p.rt.cfg.Classes))},
		)
	}
	p.mu.Unlock()
	for _, m := range outs {
		_ = p.rt.tr.TrySend(m)
	}
}

// refreshSelfCRTLocked recomputes the self CRT, and with it the
// local-search table, unless the table is current: built over d and the
// present clustering space. Every change to the space clears the table,
// and AddHost swaps d for every peer, not only for the anchor it links.
// It bumps the version and notes the work in the flight recorder when
// the CRT moves.
func (p *peer) refreshSelfCRTLocked(d *overlay.Dist) {
	if p.core.TableCurrent(d, p.rt.cfg.Classes) {
		return
	}
	// This fails only while the space names a host a departure removed
	// from the snapshot. The table stays cleared, so the next call, after
	// the repair has reset the core, tries again.
	if changed, _ := p.core.RecomputeSelfCRT(d, p.rt.cfg.Classes); changed {
		p.rt.version.Add(1)
		// Gossip-triggered work, visible in the black box: the peer's
		// clustering space changed enough to move its CRT.
		p.rt.fl().Record(flightCRT, p.id, -1, "")
	}
}

// AggrNode returns a copy of peer x's aggregated node info from neighbor
// m, nil for unknown peers.
func (rt *Runtime) AggrNode(x, m int) []int {
	return rt.view(x, func(c *overlay.Peer) []int { return c.AggrNode(m) })
}

// CRT returns a copy of peer x's per-class CRT entry for neighbor m.
func (rt *Runtime) CRT(x, m int) []int {
	return rt.view(x, func(c *overlay.Peer) []int { return c.CRT(m) })
}

// SelfCRT returns a copy of peer x's own per-class max cluster sizes.
func (rt *Runtime) SelfCRT(x int) []int { return rt.view(x, (*overlay.Peer).SelfCRT) }

// Neighbors returns peer x's overlay neighbors.
func (rt *Runtime) Neighbors(x int) []int { return rt.view(x, (*overlay.Peer).Neighbors) }

// view reads peer x's protocol state through f under the peer's lock,
// nil for unknown peers.
func (rt *Runtime) view(x int, f func(*overlay.Peer) []int) []int {
	p := rt.peerByID(x)
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f(p.core)
}
