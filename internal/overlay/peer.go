package overlay

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
)

// Dist is an immutable snapshot of the predicted distances between the
// substrate's hosts, in a host-indexed matrix: row h is host h, and the
// entries toward a host the substrate lacks (an id it never held, or a
// host churn removed) are +Inf, so no cluster or search ever picks it.
// The protocol rules read distances only through it. It is never
// written after NewDist, so a Network, the async runtimes and a cluster
// index over Matrix can share one; the runtime swaps in a fresh snapshot
// atomically when membership changes.
type Dist struct {
	m  *metric.Matrix
	in []bool // in[h]: host h is in the substrate
}

// NewDist snapshots sub's predicted distances in a matrix at least n
// wide, and wide enough for every host id sub holds.
func NewDist(sub Substrate, n int) *Dist {
	hosts := sub.Hosts()
	for _, h := range hosts {
		n = max(n, h+1)
	}
	d := &Dist{m: metric.NewMatrix(n), in: make([]bool, n)}
	for _, h := range hosts {
		d.in[h] = true
	}
	for h, ok := range d.in {
		if !ok {
			for j := range n {
				d.m.Set(h, j, math.Inf(1))
			}
		}
	}
	rows := make([]int, n) // host h is row h
	for h := range rows {
		rows[h] = h
	}
	sub.FillDist(d.m, rows)
	return d
}

// Matrix returns the host-indexed snapshot matrix. It is shared, not
// copied: callers must only read it.
func (d *Dist) Matrix() *metric.Matrix { return d.m }

// Between returns the predicted distance between hosts a and b, +Inf
// when either is missing from the snapshot, so a departed host is never
// the closest.
func (d *Dist) Between(a, b int) float64 {
	if !d.Has(a) || !d.Has(b) {
		return math.Inf(1)
	}
	return d.m.Dist(a, b)
}

// Has reports whether host h is in the snapshot. Any int is a valid
// argument: ids reach the snapshot from wire messages.
func (d *Dist) Has(h int) bool { return h >= 0 && h < len(d.in) && d.in[h] }

// setRadius returns x's maximum predicted distance to the members of set
// (the quantity cluster.FindNodeForSet minimizes).
func (d *Dist) setRadius(x int, set []int) float64 {
	worst := 0.0
	for _, m := range set {
		if dd := d.Between(x, m); dd > worst {
			worst = dd
		}
	}
	return worst
}

// checkRows reports an error naming the first of hosts missing from the
// snapshot. A host's id is its row, so a view over hosts present reads
// the snapshot in place.
func (d *Dist) checkRows(hosts []int) error {
	for _, h := range hosts {
		if !d.Has(h) {
			return fmt.Errorf("overlay: host %d is not in the distance snapshot", h)
		}
	}
	return nil
}

// spaceView restricts a snapshot matrix to a list of its rows (host
// ids), reading the shared snapshot in place.
type spaceView struct {
	m    *metric.Matrix
	rows []int
}

func (v *spaceView) N() int                { return len(v.rows) }
func (v *spaceView) Dist(i, j int) float64 { return v.m.Dist(v.rows[i], v.rows[j]) }

// Peer is one host's protocol state together with the per-peer rules of
// Algorithms 2–4 over it. It holds no locks, clocks or transport: the
// synchronous Network delivers its messages in rounds, and the async
// runtime drives the same rules from one goroutine per peer under its
// own locking. Rules that update state report whether it changed.
type Peer struct {
	id        int
	neighbors []int   // anchor-tree adjacency, sorted
	aggrNode  [][]int // [i]: close nodes propagated by neighbors[i]
	aggrCRT   [][]int // [i]: per-class max cluster size via neighbors[i]
	selfCRT   []int   // per-class max cluster size of own space
	table     ladderTable
}

// ladderTable is what RecomputeSelfCRT keeps for QueryHop: V_p and its
// cluster.Ladder for every class, tagged with the snapshot and classes it
// was built from. Every change to V_p clears it.
type ladderTable struct {
	dist    *Dist // nil: no table
	classes []float64
	rows    []int          // V_p, sorted: host ids, and so snapshot rows
	rungs   []cluster.Rung // every class's ladder back to back; P and Q index rows
	ends    []int32        // class ci's ladder ends at rungs[ends[ci]]
}

// NewPeer returns host id's empty protocol state over the given
// anchor-tree neighbors, which it sorts in place and keeps.
func NewPeer(id int, neighbors []int) *Peer {
	sort.Ints(neighbors)
	return &Peer{
		id:        id,
		neighbors: neighbors,
		aggrNode:  make([][]int, len(neighbors)),
		aggrCRT:   make([][]int, len(neighbors)),
	}
}

// slot returns v's position in p.neighbors, -1 when v is not a neighbor.
func (p *Peer) slot(v int) int {
	if i, ok := slices.BinarySearch(p.neighbors, v); ok {
		return i
	}
	return -1
}

// Neighbors returns a copy of p's overlay neighbors, sorted.
func (p *Peer) Neighbors() []int { return copyInts(p.neighbors) }

// AggrNode returns a copy of the node info p holds from neighbor m.
func (p *Peer) AggrNode(m int) []int { return p.copyEntry(p.aggrNode, m) }

// CRT returns a copy of the CRT entry p holds from neighbor m.
func (p *Peer) CRT(m int) []int { return p.copyEntry(p.aggrCRT, m) }

// copyEntry copies neighbor m's entry of xs (aggrNode or aggrCRT), empty
// when m is not a neighbor.
func (p *Peer) copyEntry(xs [][]int, m int) []int {
	if i := p.slot(m); i >= 0 {
		return copyInts(xs[i])
	}
	return []int{}
}

// SelfCRT returns a copy of p's own per-class maximum cluster sizes.
func (p *Peer) SelfCRT() []int { return copyInts(p.selfCRT) }

// copyInts copies xs into a non-nil slice, the accessors' contract.
func copyInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}

// PropNode computes the Algorithm 2 message p sends to neighbor x: the
// n_cut nodes of {p} ∪ ⋃_{v≠x} p.aggrNode[v] closest to x in predicted
// distance. Ties break on host id, which makes the fixed point unique.
func (p *Peer) PropNode(x int, d *Dist, nCut int) []int {
	ids := slices.DeleteFunc(p.nodes(x), func(u int) bool { return u == x })
	// Look each distance up once, not once per comparison.
	keys := make([]distKey, len(ids))
	for i, u := range ids {
		keys[i] = distKey{d: d.Between(x, u), id: u}
	}
	keys = nearest(keys, nCut)
	// The receiver stores the message, so it is a right-sized slice of
	// its own.
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = k.id
	}
	slices.Sort(out) // canonical storage order
	return out
}

// distKey is one PropNode candidate with its distance to the receiver.
type distKey struct {
	d  float64
	id int
}

// compareDistKeys orders candidates by distance, then host id.
func compareDistKeys(a, b distKey) int {
	switch {
	case a.d < b.d:
		return -1
	case a.d > b.d:
		return 1
	default:
		return a.id - b.id
	}
}

// nearest returns the n smallest keys in compareDistKeys order, in no
// particular order. It is a quickselect: keys are partitioned in place
// around their middle key until position n splits them, O(len(keys))
// expected instead of a full sort. The key is unique per host, so the n
// smallest are one set whatever the pivots.
func nearest(keys []distKey, n int) []distKey {
	if n >= len(keys) {
		return keys
	}
	less := func(i, j int) bool { return compareDistKeys(keys[i], keys[j]) < 0 }
	// keys[:lo] precede keys[lo:hi+1], which precede keys[hi+1:], and
	// position n lies in [lo, hi].
	lo, hi := 0, len(keys)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		keys[mid], keys[hi] = keys[hi], keys[mid] // the pivot
		at := lo
		for j := lo; j < hi; j++ {
			if less(j, hi) {
				keys[at], keys[j] = keys[j], keys[at]
				at++
			}
		}
		keys[at], keys[hi] = keys[hi], keys[at]
		switch {
		case at < n:
			lo = at + 1
		case at > n:
			hi = at - 1
		default:
			return keys[:n]
		}
	}
	return keys[:n]
}

// PropCRT computes the Algorithm 3 message p sends to neighbor x: p's
// self CRT max-merged, class by class, with the CRT entry of every other
// neighbor (split horizon).
func (p *Peer) PropCRT(x, nClasses int) []int {
	crt := make([]int, nClasses)
	copy(crt, p.selfCRT)
	for i, v := range p.neighbors {
		if v == x {
			continue
		}
		for ci, size := range p.aggrCRT[i] {
			if size > crt[ci] {
				crt[ci] = size
			}
		}
	}
	return crt
}

// SetAggrNode stores the Algorithm 2 message from neighbor from and
// reports whether it changed p's state. A message from a host that is not
// a neighbor (a late one over a link Splice removed) changes nothing.
func (p *Peer) SetAggrNode(from int, nodes []int) bool {
	i := p.slot(from)
	if i < 0 || slices.Equal(p.aggrNode[i], nodes) {
		return false
	}
	p.aggrNode[i] = nodes
	p.table = ladderTable{}
	return true
}

// SetAggrCRT stores the Algorithm 3 message from neighbor from and
// reports whether it changed p's state. Like SetAggrNode, it ignores a
// host that is not a neighbor.
func (p *Peer) SetAggrCRT(from int, crt []int) bool {
	i := p.slot(from)
	if i < 0 || slices.Equal(p.aggrCRT[i], crt) {
		return false
	}
	p.aggrCRT[i] = crt
	return true
}

// clusteringSpace returns V_p = {p} ∪ ⋃_v p.aggrNode[v], sorted: the node
// set p can form clusters from.
func (p *Peer) clusteringSpace() []int { return p.nodes(-1) }

// nodes returns {p} ∪ ⋃_{v≠skip} p.aggrNode[v], sorted and deduplicated.
func (p *Peer) nodes(skip int) []int {
	out := []int{p.id}
	for i, v := range p.neighbors {
		if v != skip {
			out = append(out, p.aggrNode[i]...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// RecomputeSelfCRT evaluates p's clustering space against every class
// (the first half of Algorithm 3) and reports whether p's self CRT
// changed. From the same index it keeps every class's ladder, so that
// QueryHop answers local searches over d without a scan.
func (p *Peer) RecomputeSelfCRT(d *Dist, classes []float64) (bool, error) {
	p.table = ladderTable{}
	rows := p.clusteringSpace()
	if err := d.checkRows(rows); err != nil {
		return false, err
	}
	// NewIndex reads every entry about |V_p| times. Over a compact
	// *metric.Matrix copy it reads whole rows as slices, ~5× faster
	// than through the view, copy included (every peer of a 512-host
	// network, 2-vCPU host: median 65 ms copy vs 319 ms view).
	view := &spaceView{m: d.m, rows: rows}
	ix, err := cluster.NewIndex(metric.FromFunc(view.N(), view.Dist))
	if err != nil {
		return false, err
	}
	selfCRT := make([]int, len(classes))
	for ci, l := range classes {
		selfCRT[ci] = ix.MaxSize(l)
	}
	rungs, ends := ix.Ladders(classes)
	p.table = ladderTable{dist: d, classes: classes, rows: rows, rungs: rungs, ends: ends}
	changed := !slices.Equal(p.selfCRT, selfCRT)
	p.selfCRT = selfCRT
	return changed, nil
}

// TableCurrent reports whether p holds the local-search table for
// snapshot d and these classes, built over p's current clustering space.
// While it does, QueryHop answers without a scan; once the space or the
// snapshot moves, the next RecomputeSelfCRT rebuilds it.
func (p *Peer) TableCurrent(d *Dist, classes []float64) bool {
	return p.table.dist != nil && p.table.dist == d && slices.Equal(p.table.classes, classes)
}

// answers reports whether t answers a local search for k in class
// classIdx (diameter classL) over snapshot d. A k below 2 is left to the
// scan, which rejects it.
func (t *ladderTable) answers(d *Dist, k, classIdx int, classL float64) bool {
	return t.dist != nil && t.dist == d && k >= 2 &&
		classIdx < len(t.classes) && t.classes[classIdx] == classL
}

// find returns what Algorithm 1 over V_p returns for k in class ci: the
// first rung of ci's ladder that admits k names the pair (P, Q), and one
// pass over V_p, reading the snapshot rows of P and Q, collects the first
// k members of S*PQ in host-id order.
func (t *ladderTable) find(d *Dist, k, ci int) []int {
	start := int32(0)
	if ci > 0 {
		start = t.ends[ci-1]
	}
	r, ok := cluster.Climb(t.rungs[start:t.ends[ci]], k)
	if !ok {
		return nil
	}
	q := t.rows[r.Q]
	rowP, rowQ := d.m.Row(t.rows[r.P]), d.m.Row(q)
	dpq := rowP[q]
	members := make([]int, 0, k)
	for _, x := range t.rows {
		if max(rowP[x], rowQ[x]) <= dpq {
			members = append(members, x)
			if len(members) == k {
				break
			}
		}
	}
	return members
}

// Hop is the outcome of one Algorithm 4 step at a peer.
type Hop struct {
	// Members is the local answer, nil when no local search ran or it
	// found no cluster.
	Members []int
	// Next is the neighbor to forward the query to, -1 when it stops
	// here (answered, or no neighbor other than the sender admits k).
	Next int
	// SelfMax is p's own CRT entry for the class; Promise is Next's.
	SelfMax, Promise int
	// Space is the size of the clustering space the local search ran
	// over, 0 when the self CRT ruled the search out.
	Space int
}

// QueryHop runs one Algorithm 4 step for a query of size k snapped to
// class classIdx (diameter classL) that arrived from prev (-1 at the
// start peer): run Algorithm 1 over the local clustering space when the
// self CRT admits k, and when that finds no cluster pick the first
// neighbor other than prev whose CRT entry admits k. The local search
// reads p's ladder table when it is current for d and the class, and
// scans V_p otherwise, with the same answer. A local-search error ends
// the step.
func (p *Peer) QueryHop(d *Dist, k, classIdx int, classL float64, prev int) (Hop, error) {
	hop := Hop{Next: -1}
	if len(p.selfCRT) > classIdx {
		hop.SelfMax = p.selfCRT[classIdx]
	}
	if k <= hop.SelfMax {
		var err error
		if p.table.answers(d, k, classIdx, classL) {
			hop.Space, hop.Members = len(p.table.rows), p.table.find(d, k, classIdx)
		} else {
			hop.Space, hop.Members, err = p.scan(d, k, classL)
		}
		if err != nil {
			return hop, fmt.Errorf("overlay: local clustering at %d: %w", p.id, err)
		}
		if hop.Members != nil {
			return hop, nil
		}
	}
	for i, v := range p.neighbors {
		if v == prev {
			continue
		}
		if crt := p.aggrCRT[i]; len(crt) > classIdx && k <= crt[classIdx] {
			hop.Next, hop.Promise = v, crt[classIdx]
			break
		}
	}
	return hop, nil
}

// scan runs Algorithm 1 over V_p, reading the snapshot in place. It
// returns |V_p| and the answer's host ids, nil when there is none.
func (p *Peer) scan(d *Dist, k int, l float64) (int, []int, error) {
	ids := p.clusteringSpace()
	if err := d.checkRows(ids); err != nil {
		return len(ids), nil, err
	}
	sel, err := cluster.FindCluster(&spaceView{m: d.m, rows: ids}, k, l)
	if err != nil || sel == nil {
		return len(ids), nil, err
	}
	members := make([]int, len(sel))
	for i, s := range sel {
		members[i] = ids[s]
	}
	return len(ids), members, nil
}

// ClimbHop runs one step of the single-node hill-climb for a search that
// arrived from prev (-1 at the start peer): it folds p's clustering space,
// minus the members of set, into the incumbent (best, radius) and returns
// the new incumbent with the neighbor to forward to — the direction whose
// node info produced the new incumbent, or -1 when no unexplored direction
// improved it and the search stops here.
func (p *Peer) ClimbHop(d *Dist, set []int, prev, best int, radius float64) (int, float64, int) {
	inSet := make(map[int]bool, len(set))
	for _, m := range set {
		inSet[m] = true
	}
	next := -1
	consider := func(u, dir int) {
		if inSet[u] {
			return
		}
		if r := d.setRadius(u, set); r < radius {
			best, radius, next = u, r, dir
		}
	}
	consider(p.id, -1)
	for i, v := range p.neighbors {
		for _, u := range p.aggrNode[i] {
			consider(u, v)
		}
	}
	if next == prev {
		next = -1
	}
	return best, radius, next
}

// Splice applies the healing rule at p when its neighbor h departs.
// survivors are h's surviving neighbors, sorted; the lowest-id one is the
// hub every other survivor links to, which keeps the overlay a tree. p
// drops its link to h, with h's entries, and returns the neighbors it
// gained.
func (p *Peer) Splice(h int, survivors []int) []int {
	if i := p.slot(h); i >= 0 {
		p.neighbors = slices.Delete(p.neighbors, i, i+1)
		p.aggrNode = slices.Delete(p.aggrNode, i, i+1)
		p.aggrCRT = slices.Delete(p.aggrCRT, i, i+1)
	}
	p.table = ladderTable{}
	if len(survivors) == 0 {
		return nil
	}
	gained := survivors[:1]
	if p.id == survivors[0] {
		gained = survivors[1:]
	}
	for _, v := range gained {
		p.Link(v)
	}
	return gained
}

// Link adds v to p's neighbors (a host joined under p's anchor), with no
// node info or CRT entry from it yet.
func (p *Peer) Link(v int) {
	p.table = ladderTable{}
	i, ok := slices.BinarySearch(p.neighbors, v)
	if ok {
		return
	}
	p.neighbors = slices.Insert(p.neighbors, i, v)
	p.aggrNode = slices.Insert(p.aggrNode, i, nil)
	p.aggrCRT = slices.Insert(p.aggrCRT, i, nil)
}

// Reset purges p's aggregation state. Survivors of a departure reset
// because any entry may transitively contain the departed host; the
// protocol rebuilds the state from scratch.
func (p *Peer) Reset() {
	clear(p.aggrNode)
	clear(p.aggrCRT)
	p.selfCRT = nil
	p.table = ladderTable{}
}
