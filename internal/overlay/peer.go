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
// substrate's hosts. The protocol rules read distances only through it:
// Network holds one, and the async runtime swaps in a fresh snapshot
// atomically when membership changes.
type Dist struct {
	m     *metric.Matrix
	hosts []int       // row -> host id
	index map[int]int // host id -> row
}

// NewDist snapshots sub's predicted distances.
func NewDist(sub Substrate) *Dist {
	m, hosts := sub.DistMatrix()
	index := make(map[int]int, len(hosts))
	for i, h := range hosts {
		index[h] = i
	}
	return &Dist{m: m, hosts: hosts, index: index}
}

// Between returns the predicted distance between hosts a and b, +Inf
// when either is missing from the snapshot, so a departed host is never
// the closest.
func (d *Dist) Between(a, b int) float64 {
	i, okA := d.index[a]
	j, okB := d.index[b]
	if !okA || !okB {
		return math.Inf(1)
	}
	return d.m.Dist(i, j)
}

// Has reports whether host h is in the snapshot.
func (d *Dist) Has(h int) bool {
	_, ok := d.index[h]
	return ok
}

// setRadius returns x's maximum predicted distance to the members of set
// (the predicted-distance analogue of cluster.SetRadius).
func (d *Dist) setRadius(x int, set []int) float64 {
	worst := 0.0
	for _, m := range set {
		if dd := d.Between(x, m); dd > worst {
			worst = dd
		}
	}
	return worst
}

// space returns the predicted metric over hosts, node i being hosts[i].
// It reads the shared snapshot in place, so a local search costs only the
// pairs it visits. A host missing from the snapshot is an error.
func (d *Dist) space(hosts []int) (metric.Space, error) {
	rows := make([]int, len(hosts))
	for i, h := range hosts {
		r, ok := d.index[h]
		if !ok {
			return nil, fmt.Errorf("overlay: host %d is not in the distance snapshot", h)
		}
		rows[i] = r
	}
	return &spaceView{m: d.m, rows: rows}, nil
}

// spaceView restricts a snapshot matrix to the rows of a host list.
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
	neighbors []int         // anchor-tree adjacency, sorted
	aggrNode  map[int][]int // neighbor -> propagated close nodes
	aggrCRT   map[int][]int // neighbor -> per-class max cluster size
	selfCRT   []int         // per-class max cluster size of own space
}

// NewPeer returns host id's empty protocol state over the given
// anchor-tree neighbors, which it sorts in place and keeps.
func NewPeer(id int, neighbors []int) *Peer {
	sort.Ints(neighbors)
	return &Peer{
		id:        id,
		neighbors: neighbors,
		aggrNode:  make(map[int][]int, len(neighbors)),
		aggrCRT:   make(map[int][]int, len(neighbors)),
	}
}

// Neighbors returns a copy of p's overlay neighbors, sorted.
func (p *Peer) Neighbors() []int { return copyInts(p.neighbors) }

// AggrNode returns a copy of p.aggrNode[m].
func (p *Peer) AggrNode(m int) []int { return copyInts(p.aggrNode[m]) }

// CRT returns a copy of p.aggrCRT[m].
func (p *Peer) CRT(m int) []int { return copyInts(p.aggrCRT[m]) }

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
	slices.SortFunc(keys, compareDistKeys)
	// The receiver stores the message, so it is a right-sized slice of
	// its own.
	out := make([]int, min(nCut, len(keys)))
	for i := range out {
		out[i] = keys[i].id
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

// PropCRT computes the Algorithm 3 message p sends to neighbor x: p's
// self CRT max-merged, class by class, with the CRT entry of every other
// neighbor (split horizon).
func (p *Peer) PropCRT(x, nClasses int) []int {
	crt := make([]int, nClasses)
	copy(crt, p.selfCRT)
	for _, v := range p.neighbors {
		if v == x {
			continue
		}
		for ci, size := range p.aggrCRT[v] {
			if size > crt[ci] {
				crt[ci] = size
			}
		}
	}
	return crt
}

// SetAggrNode stores the Algorithm 2 message from neighbor from and
// reports whether it changed p's state.
func (p *Peer) SetAggrNode(from int, nodes []int) bool {
	if slices.Equal(p.aggrNode[from], nodes) {
		return false
	}
	p.aggrNode[from] = nodes
	return true
}

// SetAggrCRT stores the Algorithm 3 message from neighbor from and
// reports whether it changed p's state.
func (p *Peer) SetAggrCRT(from int, crt []int) bool {
	if slices.Equal(p.aggrCRT[from], crt) {
		return false
	}
	p.aggrCRT[from] = crt
	return true
}

// clusteringSpace returns V_p = {p} ∪ ⋃_v p.aggrNode[v], sorted: the node
// set p can form clusters from.
func (p *Peer) clusteringSpace() []int { return p.nodes(-1) }

// nodes returns {p} ∪ ⋃_{v≠skip} p.aggrNode[v], sorted and deduplicated.
func (p *Peer) nodes(skip int) []int {
	out := []int{p.id}
	for _, v := range p.neighbors {
		if v != skip {
			out = append(out, p.aggrNode[v]...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// RecomputeSelfCRT evaluates p's clustering space against every class
// (the first half of Algorithm 3) and reports whether p's self CRT
// changed.
func (p *Peer) RecomputeSelfCRT(d *Dist, classes []float64) (bool, error) {
	s, err := d.space(p.clusteringSpace())
	if err != nil {
		return false, err
	}
	// NewIndex reads every entry about |V_p| times. Over a compact
	// *metric.Matrix copy it reads whole rows as slices, ~5× faster
	// than through the view, copy included (every peer of a 512-host
	// network, 2-vCPU host: median 65 ms copy vs 319 ms view).
	ix, err := cluster.NewIndex(metric.FromFunc(s.N(), s.Dist))
	if err != nil {
		return false, err
	}
	selfCRT := make([]int, len(classes))
	for ci, l := range classes {
		selfCRT[ci] = ix.MaxSize(l)
	}
	changed := !slices.Equal(p.selfCRT, selfCRT)
	p.selfCRT = selfCRT
	return changed, nil
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
// neighbor other than prev whose CRT entry admits k. A local-search error
// ends the step.
func (p *Peer) QueryHop(d *Dist, k, classIdx int, classL float64, prev int) (Hop, error) {
	hop := Hop{Next: -1}
	if len(p.selfCRT) > classIdx {
		hop.SelfMax = p.selfCRT[classIdx]
	}
	if k <= hop.SelfMax {
		ids := p.clusteringSpace()
		hop.Space = len(ids)
		s, err := d.space(ids)
		var sel []int
		if err == nil {
			sel, err = cluster.FindCluster(s, k, classL)
		}
		if err != nil {
			return hop, fmt.Errorf("overlay: local clustering at %d: %w", p.id, err)
		}
		if sel != nil {
			hop.Members = make([]int, len(sel))
			for i, s := range sel {
				hop.Members[i] = ids[s]
			}
			return hop, nil
		}
	}
	for _, v := range p.neighbors {
		if v == prev {
			continue
		}
		if crt := p.aggrCRT[v]; len(crt) > classIdx && k <= crt[classIdx] {
			hop.Next, hop.Promise = v, crt[classIdx]
			break
		}
	}
	return hop, nil
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
	for _, v := range p.neighbors {
		for _, u := range p.aggrNode[v] {
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
// drops its link to h and returns the neighbors it gained.
func (p *Peer) Splice(h int, survivors []int) []int {
	p.neighbors = removeSorted(p.neighbors, h)
	if len(survivors) == 0 {
		return nil
	}
	gained := survivors[:1]
	if p.id == survivors[0] {
		gained = survivors[1:]
	}
	for _, v := range gained {
		p.neighbors = insertSorted(p.neighbors, v)
	}
	return gained
}

// Link adds v to p's neighbors (a host joined under p's anchor).
func (p *Peer) Link(v int) { p.neighbors = insertSorted(p.neighbors, v) }

// Reset purges p's aggregation state. Survivors of a departure reset
// because any entry may transitively contain the departed host; the
// protocol rebuilds the state from scratch.
func (p *Peer) Reset() {
	p.aggrNode = make(map[int][]int, len(p.neighbors))
	p.aggrCRT = make(map[int][]int, len(p.neighbors))
	p.selfCRT = nil
}

func removeSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
