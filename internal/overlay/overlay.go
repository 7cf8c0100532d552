// Package overlay implements the paper's decentralized clustering
// protocol on top of the prediction-tree substrate: every host is a peer
// on the anchor-tree overlay and runs the two background aggregation
// mechanisms —
//
//   - Algorithm 2 (DynAggrNodeInfo): each peer learns, per neighbor, the
//     n_cut closest nodes reachable through that neighbor;
//   - Algorithm 3 (DynAggrMaxCluster): each peer learns, per neighbor and
//     per bandwidth class, the maximum cluster size available through that
//     neighbor, forming its cluster routing table (CRT);
//
// and answers queries with Algorithm 4 (ProcessQuery): try the local
// clustering space first, otherwise forward toward a neighbor whose CRT
// promises a big-enough cluster.
//
// Each rule is written once, as a method of the per-peer state type Peer
// over a predicted-distance snapshot Dist. Network drives those rules
// synchronously and deterministically: rounds exchange all messages
// simultaneously, which converges to the unique fixed point the
// correctness theorems (3.2, 3.3) describe. Package runtime drives the
// same Peer rules asynchronously, one goroutine per peer, so the two
// engines cannot drift apart.
package overlay

import (
	"fmt"
	"sort"

	"bwcluster/internal/metric"
)

// DefaultNCut is the paper's propagation cutoff (Sec. IV-B).
const DefaultNCut = 10

// Config parameterizes the protocol.
type Config struct {
	// NCut caps how many node records a peer propagates to a neighbor per
	// round (the paper's n_cut).
	NCut int
	// Classes is the predetermined set of diameter classes L, ascending.
	// Queries snap their constraint to the largest class that does not
	// exceed it, which is conservative (never relaxes the constraint).
	Classes []float64
}

// Validate reports whether c is a usable protocol configuration.
func (c Config) Validate() error {
	if c.NCut < 1 {
		return fmt.Errorf("overlay: NCut must be >= 1, got %d", c.NCut)
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("overlay: at least one diameter class is required")
	}
	for i, l := range c.Classes {
		if l <= 0 {
			return fmt.Errorf("overlay: class %d = %v must be positive", i, l)
		}
		if i > 0 && c.Classes[i] <= c.Classes[i-1] {
			return fmt.Errorf("overlay: classes must be strictly ascending")
		}
	}
	return nil
}

// ClassesFromBandwidths converts a set of bandwidth classes (Mbps) into
// ascending diameter classes using the rational transform with constant c.
func ClassesFromBandwidths(bws []float64, c float64) ([]float64, error) {
	out := make([]float64, 0, len(bws))
	for _, b := range bws {
		l, err := metric.DistanceForBandwidthConstraint(b, c)
		if err != nil {
			return nil, fmt.Errorf("overlay: bandwidth class %v: %w", b, err)
		}
		out = append(out, l)
	}
	sort.Float64s(out)
	// Drop duplicates.
	dedup := out[:0]
	for i, l := range out {
		if i == 0 || l != dedup[len(dedup)-1] {
			dedup = append(dedup, l)
		}
	}
	return dedup, nil
}

// Substrate is what the protocol needs from the prediction framework: the
// member hosts, the anchor-tree adjacency (the overlay links), and the
// predicted pairwise distances, which FillDist writes between every two
// hosts g and h at (rows[g], rows[h]) of a matrix. Both predtree.Tree and
// predtree.Forest satisfy it.
type Substrate interface {
	Len() int
	Hosts() []int
	AnchorNeighbors(h int) []int
	FillDist(m *metric.Matrix, rows []int)
}

// Stats counts the background traffic the protocol has generated,
// quantifying the paper's scalability requirement: every peer talks only
// to its anchor-tree neighbors, and each message carries at most n_cut
// node records or |L| CRT entries.
type Stats struct {
	// NodeInfoMessages and CRTMessages count Algorithm 2 / Algorithm 3
	// messages sent.
	NodeInfoMessages int
	CRTMessages      int
	// NodeInfoRecords counts the node records shipped inside Algorithm 2
	// messages (each <= n_cut per message).
	NodeInfoRecords int
	// CRTRecords counts per-class entries shipped inside Algorithm 3
	// messages.
	CRTRecords int
}

// Messages returns the total message count.
func (s Stats) Messages() int { return s.NodeInfoMessages + s.CRTMessages }

// Network is the collection of peers plus the predicted-distance metric
// they share (each peer's slice of it is locally computable from distance
// labels; the simulation keeps it materialized for speed).
type Network struct {
	cfg    Config
	sub    Substrate
	hosts  []int // live roster, join order
	dist   *Dist
	peers  map[int]*Peer
	rounds int // background rounds executed so far
	stats  Stats
}

// NewNetwork builds the overlay for every host currently in the
// substrate (a prediction tree or forest), over a fresh snapshot of its
// predicted distances.
func NewNetwork(sub Substrate, cfg Config) (*Network, error) {
	if sub == nil {
		return nil, fmt.Errorf("overlay: empty prediction substrate")
	}
	return NewNetworkOver(sub, NewDist(sub, 0), cfg)
}

// NewNetworkOver builds the overlay for every host in sub over d, a
// snapshot of sub's predicted distances, which the network shares and
// never writes. Every host of sub must be in d.
func NewNetworkOver(sub Substrate, d *Dist, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sub == nil || sub.Len() == 0 {
		return nil, fmt.Errorf("overlay: empty prediction substrate")
	}
	nw := &Network{cfg: cfg, sub: sub}
	nw.reload(d)
	if err := d.checkRows(nw.hosts); err != nil {
		return nil, err
	}
	return nw, nil
}

// reload re-reads hosts and adjacency from the substrate and takes d as
// the predicted distances, preserving any aggregation state for hosts
// that persist.
func (nw *Network) reload(d *Dist) {
	nw.dist = d
	nw.hosts = nw.sub.Hosts()
	old := nw.peers
	nw.peers = make(map[int]*Peer, len(nw.hosts))
	for _, h := range nw.hosts {
		p := NewPeer(h, nw.sub.AnchorNeighbors(h))
		if prev, ok := old[h]; ok {
			for i, m := range p.neighbors {
				if j := prev.slot(m); j >= 0 {
					p.aggrNode[i], p.aggrCRT[i] = prev.aggrNode[j], prev.aggrCRT[j]
				}
			}
		}
		nw.peers[h] = p
	}
}

// Resync picks up membership changes in the underlying substrate, both
// joins and removals. On a removal, surviving peers' node-info
// aggregation may still reference departed hosts, and those records
// must be dropped before the next round reads them (the reloaded
// snapshot no longer holds departed hosts).
// Aggregation state mentioning only surviving hosts is kept, so
// re-convergence after a removal is incremental: stale values flush out
// within the anchor-tree diameter because every round overwrites them
// under the split-horizon rule, they are never maxed into place.
func (nw *Network) Resync() {
	nw.reload(NewDist(nw.sub, 0))
	for _, p := range nw.peers {
		for i, nodes := range p.aggrNode {
			kept := nodes[:0]
			for _, u := range nodes {
				if nw.dist.Has(u) {
					kept = append(kept, u)
				}
			}
			p.aggrNode[i] = kept
		}
	}
}

// Hosts returns the overlay members in join order.
func (nw *Network) Hosts() []int {
	out := make([]int, len(nw.hosts))
	copy(out, nw.hosts)
	return out
}

// Rounds reports how many background rounds have been executed.
func (nw *Network) Rounds() int { return nw.rounds }

// Stats reports the background traffic generated so far.
func (nw *Network) Stats() Stats { return nw.stats }

// Classes returns the configured diameter classes.
func (nw *Network) Classes() []float64 {
	out := make([]float64, len(nw.cfg.Classes))
	copy(out, nw.cfg.Classes)
	return out
}

// RunNodeInfoRound executes one synchronous round of Algorithm 2 at every
// peer: each neighbor pair exchanges Peer.PropNode messages computed from
// the previous round's state. It reports whether any aggrNode entry
// changed.
func (nw *Network) RunNodeInfoRound() bool {
	nw.rounds++
	mConvergeRounds.Inc()
	type msg struct {
		from, to int
		nodes    []int
	}
	var msgs []msg
	for _, h := range nw.hosts {
		m := nw.peers[h]
		for _, x := range m.neighbors {
			nodes := m.PropNode(x, nw.dist, nw.cfg.NCut)
			nw.stats.NodeInfoMessages++
			nw.stats.NodeInfoRecords += len(nodes)
			mGossip.Inc()
			msgs = append(msgs, msg{from: h, to: x, nodes: nodes})
		}
	}
	changed := false
	for _, mg := range msgs {
		if nw.peers[mg.to].SetAggrNode(mg.from, mg.nodes) {
			changed = true
		}
	}
	return changed
}

// ClusteringSpace returns V_x = {x} ∪ ⋃_v x.aggrNode[v], sorted: the node
// set peer x can form clusters from.
func (nw *Network) ClusteringSpace(x int) ([]int, error) {
	p, ok := nw.peers[x]
	if !ok {
		return nil, fmt.Errorf("overlay: unknown host %d", x)
	}
	return p.clusteringSpace(), nil
}

// RecomputeSelfCRT evaluates every peer's local clustering space against
// all classes (the first half of Algorithm 3). Call after the node-info
// aggregation has converged; Converge does this automatically.
func (nw *Network) RecomputeSelfCRT() error {
	for _, h := range nw.hosts {
		if _, err := nw.peers[h].RecomputeSelfCRT(nw.dist, nw.cfg.Classes); err != nil {
			return fmt.Errorf("overlay: index for host %d: %w", h, err)
		}
	}
	return nil
}

// RunCRTRound executes one synchronous propagation round of Algorithm 3
// and reports whether any CRT entry changed. RecomputeSelfCRT must have
// run first.
func (nw *Network) RunCRTRound() bool {
	nw.rounds++
	mConvergeRounds.Inc()
	type msg struct {
		from, to int
		crt      []int
	}
	var msgs []msg
	for _, h := range nw.hosts {
		m := nw.peers[h]
		for _, x := range m.neighbors {
			crt := m.PropCRT(x, len(nw.cfg.Classes))
			nw.stats.CRTMessages++
			nw.stats.CRTRecords += len(crt)
			mGossip.Inc()
			msgs = append(msgs, msg{from: h, to: x, crt: crt})
		}
	}
	changed := false
	for _, mg := range msgs {
		if nw.peers[mg.to].SetAggrCRT(mg.from, mg.crt) {
			changed = true
		}
	}
	return changed
}

// Converge runs node-info rounds to their fixed point, recomputes local
// CRTs, and runs CRT rounds to their fixed point. maxRounds bounds each
// phase (the fixed point is reached within the anchor-tree diameter; pass
// 0 to use the number of hosts). It returns the total rounds executed.
func (nw *Network) Converge(maxRounds int) (int, error) {
	if maxRounds <= 0 {
		maxRounds = len(nw.hosts)
	}
	start := nw.rounds
	for i := 0; i < maxRounds; i++ {
		if !nw.RunNodeInfoRound() {
			break
		}
	}
	if err := nw.RecomputeSelfCRT(); err != nil {
		return nw.rounds - start, err
	}
	for i := 0; i < maxRounds; i++ {
		if !nw.RunCRTRound() {
			break
		}
	}
	return nw.rounds - start, nil
}

// AggrNode exposes x.aggrNode[m] (sorted copy) for tests and diagnostics.
func (nw *Network) AggrNode(x, m int) []int {
	return nw.view(x, func(p *Peer) []int { return p.AggrNode(m) })
}

// CRT exposes x.aggrCRT[m] (per-class copy).
func (nw *Network) CRT(x, m int) []int {
	return nw.view(x, func(p *Peer) []int { return p.CRT(m) })
}

// SelfCRT exposes x's own per-class maximum cluster sizes.
func (nw *Network) SelfCRT(x int) []int { return nw.view(x, (*Peer).SelfCRT) }

// Neighbors returns x's overlay neighbors.
func (nw *Network) Neighbors(x int) []int { return nw.view(x, (*Peer).Neighbors) }

// view reads peer x's state through f, nil for unknown hosts.
func (nw *Network) view(x int, f func(*Peer) []int) []int {
	if p, ok := nw.peers[x]; ok {
		return f(p)
	}
	return nil
}
