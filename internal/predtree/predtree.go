// Package predtree implements the decentralized bandwidth-prediction
// substrate from Song, Keleher, Bhattacharjee and Sussman (DISC'10 brief /
// INFOCOM'11), which the clustering paper builds on: an edge-weighted
// *prediction tree* embedding pairwise bandwidth (via the rational
// transform), the rooted *anchor tree* overlay, and per-host *distance
// labels* that let any two hosts estimate their distance from purely local
// state.
//
// Hosts are identified by small integers (the indices of the measurement
// oracle). A new host x is attached by choosing a base leaf z, selecting
// the end node y that maximizes the Gromov product
//
//	(x|y)_z = 1/2 (d(z,x) + d(z,y) - d(x,y)),
//
// creating x's inner node t_x on the tree path z~y at distance (x|y)_z
// from z, and hanging x off t_x with edge weight (y|z)_x. The host whose
// insertion created the edge t_x lands on becomes x's *anchor*.
//
// Storage is flat (DESIGN.md §8g): vertices and half-edges live in
// contiguous arenas cross-referenced by int32 indices, per-host state
// lives in dense host-indexed arrays, and tree walks borrow a pooled
// scratch arena instead of allocating. The garbage collector sees a
// handful of slices per tree, never a pointer web.
package predtree

import (
	"fmt"
	"math"
	"time"

	"bwcluster/internal/metric"
)

// SearchMode selects how the end node y is found during insertion.
type SearchMode int

const (
	// SearchFull scans every existing leaf for the global maximizer of the
	// Gromov product. It needs one measurement per existing host and
	// corresponds to the centralized construction.
	SearchFull SearchMode = iota + 1
	// SearchAnchor walks the anchor tree greedily from the root, at each
	// step measuring only the current host and its anchor children and
	// descending while the Gromov product improves. This is the
	// decentralized construction: O(depth x fanout) measurements. On exact
	// tree metrics the greedy walk finds a global maximizer; on noisy data
	// it is a heuristic (the tradeoff the prior work accepts).
	SearchAnchor
)

// Oracle supplies measured distances between hosts. metric.Matrix
// satisfies it.
type Oracle interface {
	N() int
	Dist(i, j int) float64
}

// halfEdge is one direction of an undirected prediction-tree edge. Both
// directions live in the tree's edge arena; next chains the out-edges of
// one vertex in insertion order (the order the old per-vertex adjacency
// slices kept, which the gob wire format exposes).
type halfEdge struct {
	to      int32 // destination vertex index
	next    int32 // next half-edge out of the same vertex, -1 ends the list
	creator int32 // host whose insertion created this edge
	w       float64
}

// vertex is one prediction-tree vertex: a leaf (host >= 0) or an inner
// node (host == -1), with its adjacency list threaded through the edge
// arena.
type vertex struct {
	host      int32 // >= 0 for a leaf vertex, -1 for an inner node
	firstEdge int32 // head of the adjacency list, -1 when isolated
}

// nilIdx is the null value of every int32 index field.
const nilIdx = int32(-1)

// Tree is a prediction tree plus its anchor tree. The zero value is not
// usable; construct with New. A fully built tree is safe for concurrent
// read-only use (Dist, Label, DistMatrix, the anchor accessors); Add and
// Remove mutate and must not race with anything.
type Tree struct {
	c    float64 // rational-transform constant
	mode SearchMode

	verts []vertex   // vertex arena
	edges []halfEdge // half-edge arena, two per undirected edge

	// Host-indexed state, all sized hostCap() and grown together. A host
	// h is present iff leafVert[h] >= 0; tVert is nilIdx for the root
	// (whose insertion creates no inner node) and absent hosts.
	leafVert     []int32
	tVert        []int32
	anchorParent []int32 // anchor host, nilIdx for the root and absent hosts
	firstChild   []int32 // anchored children as a linked list in join order
	lastChild    []int32
	nextSibling  []int32
	offset       []float64
	pendant      []float64

	root         int   // first host, -1 while empty
	order        []int // hosts in insertion order
	measurements int   // oracle lookups performed during construction

	// Distinct measured pairs as a bitset: pair (lo, hi), lo < hi, is bit
	// lo*mstride+hi. The stride is pinned by the first oracle seen and
	// regrown (rarely) if a later oracle covers more hosts.
	measured      []uint64
	mstride       int
	measuredCount int

	// Free-lists of arena slots released by Remove (and the half-edge
	// slots subdivision drops), reused LIFO by the next allocation so a
	// remove/re-add cycle leaves the arena length unchanged. In-memory
	// only: the wire format compacts freed slots away on encode.
	freeVerts []int32
	freeEdges []int32

	// epoch counts membership changes: Add and Remove each bump it once.
	// Derived read structures (cluster.Index) are tagged with the epoch
	// they were built at so queries against stale membership are rejected
	// instead of silently wrong. Not on the tree's own wire: a decoded
	// snapshot starts at zero unless the enclosing snapshot re-seats the
	// counter via SetEpoch (bwcluster persistence does, so replicated
	// shards agree on the epoch their rendezvous assignment is keyed by).
	epoch uint64
}

// New returns an empty prediction tree using rational-transform constant c
// and the given end-node search mode.
func New(c float64, mode SearchMode) (*Tree, error) {
	if c <= 0 {
		return nil, fmt.Errorf("predtree: constant must be positive, got %v", c)
	}
	if mode != SearchFull && mode != SearchAnchor {
		return nil, fmt.Errorf("predtree: unknown search mode %d", mode)
	}
	return &Tree{c: c, mode: mode, root: -1}, nil
}

// Build constructs a tree from the oracle by inserting hosts in the given
// order. Passing a nil order inserts 0..o.N()-1.
func Build(o Oracle, c float64, mode SearchMode, order []int) (*Tree, error) {
	t, err := New(c, mode)
	if err != nil {
		return nil, err
	}
	if order == nil {
		order = make([]int, o.N())
		for i := range order {
			order[i] = i
		}
	}
	start := time.Now()
	for _, h := range order {
		if err := t.Add(h, o); err != nil {
			return nil, fmt.Errorf("predtree: add host %d: %w", h, err)
		}
	}
	mBuildSeconds.Observe(time.Since(start).Seconds())
	mTreesBuilt.Inc()
	mMeasurements.Add(t.measurements)
	return t, nil
}

// C returns the rational-transform constant.
func (t *Tree) C() float64 { return t.c }

// Root returns the first host added, or -1 for an empty tree.
// Kept: test seam: remove tests check root promotion.
func (t *Tree) Root() int { return t.root }

// Len reports the number of hosts in the tree.
func (t *Tree) Len() int { return len(t.order) }

// Hosts returns the hosts in insertion order.
func (t *Tree) Hosts() []int {
	out := make([]int, len(t.order))
	copy(out, t.order)
	return out
}

// hostCap returns the capacity of the host-indexed arrays.
func (t *Tree) hostCap() int { return len(t.leafVert) }

// Contains reports whether host h has been added.
func (t *Tree) Contains(h int) bool {
	return h >= 0 && h < t.hostCap() && t.leafVert[h] >= 0
}

// Measurements reports how many oracle distance lookups construction has
// performed so far. It is the cost metric distinguishing the centralized
// and decentralized construction modes.
func (t *Tree) Measurements() int { return t.measurements }

// DistinctMeasurements reports how many distinct host pairs construction
// measured — the real network cost when hosts cache measurement results
// (out of n(n-1)/2 possible pairs).
// Kept: test seam: tests count one tree's measurements.
func (t *Tree) DistinctMeasurements() int { return t.measuredCount }

// Epoch reports the tree's membership epoch: the number of Add and
// Remove operations applied so far. Structures derived from a fixed host
// set carry the epoch they observed and must be rebuilt when it moves.
func (t *Tree) Epoch() uint64 { return t.epoch }

// SetEpoch re-seats the membership epoch counter. The tree's own wire
// format does not carry the epoch, so a snapshot that persists it out of
// band (bwcluster's systemWire) calls this on load; later Add/Remove
// operations continue the sequence from the restored value.
func (t *Tree) SetEpoch(epoch uint64) { t.epoch = epoch }

// ensureHostCap grows the host-indexed arrays (and the measured-pair
// bitset stride) to cover hosts [0, n).
func (t *Tree) ensureHostCap(n int) {
	if n <= t.hostCap() {
		return
	}
	old := t.hostCap()
	grow32 := func(s []int32) []int32 {
		out := append(s, make([]int32, n-old)...)
		for i := old; i < n; i++ {
			out[i] = nilIdx
		}
		return out
	}
	t.leafVert = grow32(t.leafVert)
	t.tVert = grow32(t.tVert)
	t.anchorParent = grow32(t.anchorParent)
	t.firstChild = grow32(t.firstChild)
	t.lastChild = grow32(t.lastChild)
	t.nextSibling = grow32(t.nextSibling)
	t.offset = append(t.offset, make([]float64, n-old)...)
	t.pendant = append(t.pendant, make([]float64, n-old)...)
	t.growMeasured(n)
}

// growMeasured re-strides the measured-pair bitset to cover hosts [0, n).
func (t *Tree) growMeasured(n int) {
	if n <= t.mstride {
		return
	}
	fresh := make([]uint64, (n*n+63)/64)
	if t.measuredCount > 0 {
		for lo := 0; lo < t.mstride; lo++ {
			for hi := lo + 1; hi < t.mstride; hi++ {
				if t.pairSet(lo, hi) {
					bit := lo*n + hi
					fresh[bit>>6] |= 1 << (bit & 63)
				}
			}
		}
	}
	t.measured = fresh
	t.mstride = n
}

func (t *Tree) pairSet(lo, hi int) bool {
	bit := lo*t.mstride + hi
	return t.measured[bit>>6]&(1<<(bit&63)) != 0
}

func (t *Tree) measure(o Oracle, a, b int) float64 {
	t.measurements++
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi >= t.mstride {
		t.growMeasured(hi + 1)
	}
	bit := lo*t.mstride + hi
	if t.measured[bit>>6]&(1<<(bit&63)) == 0 {
		t.measured[bit>>6] |= 1 << (bit & 63)
		t.measuredCount++
	}
	return o.Dist(a, b)
}

// eachMeasuredPair calls f for every distinct measured pair in ascending
// (lo, hi) order — which is also ascending lo<<32|hi order, the order the
// wire format requires.
func (t *Tree) eachMeasuredPair(f func(lo, hi int)) {
	if t.measuredCount == 0 {
		return
	}
	for lo := 0; lo < t.mstride; lo++ {
		for hi := lo + 1; hi < t.mstride; hi++ {
			if t.pairSet(lo, hi) {
				f(lo, hi)
			}
		}
	}
}

// Add inserts host h using measured distances from o.
func (t *Tree) Add(h int, o Oracle) error {
	if h < 0 || h >= o.N() {
		return fmt.Errorf("predtree: host %d out of oracle range [0,%d)", h, o.N())
	}
	t.ensureHostCap(o.N())
	if t.Contains(h) {
		return fmt.Errorf("predtree: host %d already present", h)
	}
	if t.root == -1 {
		t.leafVert[h] = t.newVertex(int32(h))
		t.root = h
		t.anchorParent[h] = nilIdx
		t.offset[h] = 0
		t.pendant[h] = 0
		t.order = append(t.order, h)
		t.epoch++
		return nil
	}

	sc := getScratch(len(t.verts) + 2)
	defer putScratch(sc)

	z, dzx := t.findBase(h, o)
	y, gp := t.findEndNode(h, z, dzx, o, sc)

	// The inner node t_x lies on the geodesic from z to x, so geometry
	// bounds the Gromov product by d(z,x) and fixes the pendant to
	// d(z,x) - d(z,t_x). On exact tree metrics these equal the raw
	// formulas ((x|y)_z and (y|z)_x); on noisy inputs the clamps stop
	// measurement noise on large distances from corrupting the placement
	// and keep the measured base distance exactly embedded.
	if gp > dzx {
		gp = dzx
	}
	tx, gActual := t.splitAt(z, y, gp, h, sc)
	pend := dzx - gActual
	if pend < 0 {
		pend = 0
	}
	lx := t.newVertex(int32(h))
	t.connect(lx, tx, pend, int32(h))
	t.leafVert[h] = lx
	t.tVert[h] = tx
	t.pendant[h] = pend
	t.order = append(t.order, h)
	t.epoch++
	return nil
}

// newVertex returns a vertex-arena slot holding a fresh vertex, reusing
// a freed slot (LIFO) when Remove released one.
func (t *Tree) newVertex(host int32) int32 {
	if n := len(t.freeVerts); n > 0 {
		idx := t.freeVerts[n-1]
		t.freeVerts = t.freeVerts[:n-1]
		t.verts[idx] = vertex{host: host, firstEdge: nilIdx}
		return idx
	}
	t.verts = append(t.verts, vertex{host: host, firstEdge: nilIdx})
	return int32(len(t.verts) - 1)
}

// findBase picks the base leaf z for inserting x. The paper allows any
// leaf; choosing one close to x keeps the Gromov products small in
// magnitude, which matters on noisy (non-tree) inputs where subtracting
// two large near-equal distances would turn small relative measurement
// noise into large absolute placement error (the accuracy heuristic the
// prior embedding work alludes to). SearchFull scans every host;
// SearchAnchor descends the anchor tree greedily toward smaller measured
// distance.
func (t *Tree) findBase(x int, o Oracle) (z int, dzx float64) {
	switch t.mode {
	case SearchFull:
		best, bestD := t.root, t.measure(o, t.root, x)
		for _, cand := range t.order {
			if cand == t.root {
				continue
			}
			if d := t.measure(o, cand, x); d < bestD {
				best, bestD = cand, d
			}
		}
		return best, bestD
	default: // SearchAnchor
		cur, curD := t.root, t.measure(o, t.root, x)
		for {
			next, nextD := cur, curD
			for child := t.firstChild[cur]; child >= 0; child = t.nextSibling[child] {
				if d := t.measure(o, int(child), x); d < nextD {
					next, nextD = int(child), d
				}
			}
			if next == cur {
				return cur, curD
			}
			cur, curD = next, nextD
		}
	}
}

// findEndNode picks the end node y maximizing (x|y)_z and returns it along
// with the maximal Gromov product. dzx is the pre-measured d(z,x).
func (t *Tree) findEndNode(x, z int, dzx float64, o Oracle, sc *scratch) (y int, gp float64) {
	grom := func(cand int) float64 {
		if cand == z {
			return 0
		}
		return 0.5 * (dzx + t.measure(o, z, cand) - t.measure(o, x, cand))
	}
	switch t.mode {
	case SearchFull:
		best, bestG := z, 0.0
		for _, cand := range t.order {
			if g := grom(cand); g > bestG {
				best, bestG = cand, g
			}
		}
		return best, bestG
	default: // SearchAnchor
		// Pruned depth-first search over the (undirected) anchor tree,
		// starting at the base leaf z. The Gromov product g(y) = (x|y)_z
		// equals the distance from z to the point where the path z~y
		// diverges from the path z~x. Crossing an anchor edge away from z
		// enters a region of the prediction tree that hangs off a single
		// point (the inner node t_c when descending to child c; the
		// current host's own inner node t_u when climbing to its parent):
		// the region can only contain a better end node if the divergence
		// reaches that hang point, i.e. g(neighbor) >= d_T(z, hang).
		// Regions whose entry fails the bound diverge earlier and are
		// entire plateaus — pruned after a single measurement. The bound
		// holds with equality at branch points (several inner nodes
		// coincide), hence the tolerance and the exploration of all
		// neighbors that meet it. Exact on tree metrics; a heuristic
		// (like the prior work's) on noisy data.
		//
		// d_T(z, ·) is needed for every hang point the walk reaches, so
		// one BFS from z fills the scratch distance table up front —
		// replacing the per-neighbor path walks the pointer version did
		// (identical floats: a tree path is unique and both accumulate
		// weights in root-to-leaf order).
		const relTol = 1e-7
		best, bestG := z, 0.0
		type frame struct {
			host, from int32
		}
		zv := t.leafVert[z]
		t.distancesFrom(zv, sc)
		stack := make([]frame, 0, 32)
		stack = append(stack, frame{host: int32(z), from: nilIdx})
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(nb int32) {
				g := grom(int(nb))
				if g > bestG {
					best, bestG = int(nb), g
				}
				hangHost := nb // descending: region hangs at t_nb
				if nb == t.anchorParent[cur.host] {
					hangHost = cur.host // climbing: region hangs at t_cur
				}
				hv := t.tVert[hangHost]
				if hv < 0 {
					// hangHost is the tree root (no inner node): its
					// "pendant" is the root point itself.
					hv = t.leafVert[hangHost]
				}
				reach := sc.dist[hv]
				if g >= reach-relTol*(1+math.Abs(reach)) {
					stack = append(stack, frame{host: nb, from: cur.host})
				}
			}
			// Parent first, then children in join order — the neighbor
			// order AnchorNeighbors documents.
			if p := t.anchorParent[cur.host]; p >= 0 && p != cur.from {
				visit(p)
			}
			for c := t.firstChild[cur.host]; c >= 0; c = t.nextSibling[c] {
				if c != cur.from {
					visit(c)
				}
			}
		}
		if bestG <= 0 {
			return z, 0
		}
		return best, bestG
	}
}

// splitAt creates the inner vertex t_x located on the tree path from leaf
// z to leaf y at distance g from z (clamped to the path), records
// newHost's anchor, and returns the vertex index of t_x together with the
// actual placement distance from z after clamping.
func (t *Tree) splitAt(z, y int, g float64, newHost int, sc *scratch) (tx int32, gActual float64) {
	zv := t.leafVert[z]
	if y == z {
		// Degenerate path: t_x coincides with z.
		tx = t.newVertex(-1)
		t.connect(tx, zv, 0, int32(newHost))
		t.setAnchor(newHost, z, 0) // t_x coincides with z
		return tx, 0
	}
	path, weights := t.path(zv, t.leafVert[y], sc)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if g < 0 {
		g = 0
	}
	if g > total {
		g = total
	}
	// Find the first edge whose far end reaches cumulative >= g.
	cum := 0.0
	for i := 0; i < len(weights); i++ {
		if cum+weights[i] >= g || i == len(weights)-1 {
			u, v := path[i], path[i+1]
			offsetOnEdge := g - cum
			if offsetOnEdge < 0 {
				offsetOnEdge = 0
			}
			if offsetOnEdge > weights[i] {
				offsetOnEdge = weights[i]
			}
			creator := t.edgeCreator(u, v)
			tx = t.subdivide(u, v, offsetOnEdge)
			t.setAnchor(newHost, int(creator), t.distToHost(tx, int(creator), sc))
			return tx, cum + offsetOnEdge
		}
		cum += weights[i]
	}
	// Unreachable: the loop always returns on the last edge.
	return nilIdx, 0
}

func (t *Tree) setAnchor(child, parent int, off float64) {
	t.anchorParent[child] = int32(parent)
	if t.firstChild[parent] < 0 {
		t.firstChild[parent] = int32(child)
	} else {
		t.nextSibling[t.lastChild[parent]] = int32(child)
	}
	t.lastChild[parent] = int32(child)
	t.offset[child] = off
}

// subdivide splits edge (u,v) at distance off from u with a fresh inner
// vertex and returns its index. Both halves keep the original creator.
func (t *Tree) subdivide(u, v int32, off float64) int32 {
	w, creator, ok := t.removeEdge(u, v)
	if !ok {
		return nilIdx
	}
	tx := t.newVertex(-1)
	t.connect(u, tx, off, creator)
	t.connect(tx, v, w-off, creator)
	return tx
}

// addHalfEdge appends a half-edge from a to b at the tail of a's
// adjacency list, preserving insertion order (the order the wire format
// serializes). The slot comes off the free-list (LIFO) when one is
// available, else the arena grows.
func (t *Tree) addHalfEdge(a, b int32, w float64, creator int32) {
	var idx int32
	if n := len(t.freeEdges); n > 0 {
		idx = t.freeEdges[n-1]
		t.freeEdges = t.freeEdges[:n-1]
		t.edges[idx] = halfEdge{to: b, next: nilIdx, creator: creator, w: w}
	} else {
		idx = int32(len(t.edges))
		t.edges = append(t.edges, halfEdge{to: b, next: nilIdx, creator: creator, w: w})
	}
	if t.verts[a].firstEdge < 0 {
		t.verts[a].firstEdge = idx
		return
	}
	e := t.verts[a].firstEdge
	for t.edges[e].next >= 0 {
		e = t.edges[e].next
	}
	t.edges[e].next = idx
}

func (t *Tree) connect(a, b int32, w float64, creator int32) {
	t.addHalfEdge(a, b, w, creator)
	t.addHalfEdge(b, a, w, creator)
}

// dropHalfEdge unlinks the half-edge a->b and releases its arena slot
// onto the free-list for the next addHalfEdge to reuse.
func (t *Tree) dropHalfEdge(a, b int32) (w float64, creator int32, ok bool) {
	prev := nilIdx
	for e := t.verts[a].firstEdge; e >= 0; e = t.edges[e].next {
		if t.edges[e].to == b {
			if prev < 0 {
				t.verts[a].firstEdge = t.edges[e].next
			} else {
				t.edges[prev].next = t.edges[e].next
			}
			w, creator = t.edges[e].w, t.edges[e].creator
			t.edges[e] = halfEdge{to: nilIdx, next: nilIdx, creator: nilIdx}
			t.freeEdges = append(t.freeEdges, e)
			return w, creator, true
		}
		prev = e
	}
	return 0, 0, false
}

func (t *Tree) removeEdge(u, v int32) (w float64, creator int32, ok bool) {
	w, creator, ok = t.dropHalfEdge(u, v)
	if !ok {
		return 0, 0, false
	}
	t.dropHalfEdge(v, u)
	return w, creator, true
}

func (t *Tree) edgeCreator(u, v int32) int32 {
	for e := t.verts[u].firstEdge; e >= 0; e = t.edges[e].next {
		if t.edges[e].to == v {
			return t.edges[e].creator
		}
	}
	return nilIdx
}

// path fills sc.pathVerts/sc.pathWeights with the vertex sequence and
// per-edge weights from vertex a to vertex b via breadth-first search and
// returns them. The slices belong to the scratch arena and are valid
// until its next path call.
func (t *Tree) path(a, b int32, sc *scratch) (verts []int32, weights []float64) {
	sc.pathVerts = sc.pathVerts[:0]
	sc.pathWeights = sc.pathWeights[:0]
	if a == b {
		sc.pathVerts = append(sc.pathVerts, a)
		return sc.pathVerts, nil
	}
	epoch := sc.nextEpoch()
	sc.mark[a] = epoch
	sc.prevVert[a] = nilIdx
	queue := sc.queue[:0]
	queue = append(queue, a)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		cur := queue[head]
		for e := t.verts[cur].firstEdge; e >= 0; e = t.edges[e].next {
			to := t.edges[e].to
			if sc.mark[to] == epoch {
				continue
			}
			sc.mark[to] = epoch
			sc.prevVert[to] = cur
			sc.prevEdge[to] = e
			if to == b {
				found = true
				break
			}
			queue = append(queue, to)
		}
	}
	sc.queue = queue[:0]
	if !found {
		return nil, nil
	}
	for v := b; v != nilIdx; v = sc.prevVert[v] {
		sc.pathVerts = append(sc.pathVerts, v)
	}
	// Reverse into a->b order.
	pv := sc.pathVerts
	for i, j := 0, len(pv)-1; i < j; i, j = i+1, j-1 {
		pv[i], pv[j] = pv[j], pv[i]
	}
	for i := 1; i < len(pv); i++ {
		sc.pathWeights = append(sc.pathWeights, t.edges[sc.prevEdge[pv[i]]].w)
	}
	return pv, sc.pathWeights
}

// vertDist returns the tree distance between two vertex indices,
// accumulating edge weights in path order from a (the same float
// association the explicit path walk used).
func (t *Tree) vertDist(a, b int32, sc *scratch) float64 {
	if a == b {
		return 0
	}
	epoch := sc.nextEpoch()
	sc.mark[a] = epoch
	sc.dist[a] = 0
	queue := sc.queue[:0]
	queue = append(queue, a)
	defer func() { sc.queue = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for e := t.verts[cur].firstEdge; e >= 0; e = t.edges[e].next {
			to := t.edges[e].to
			if sc.mark[to] == epoch {
				continue
			}
			sc.mark[to] = epoch
			sc.dist[to] = sc.dist[cur] + t.edges[e].w
			if to == b {
				return sc.dist[to]
			}
			queue = append(queue, to)
		}
	}
	return math.Inf(1)
}

// distToHost returns the tree distance from vertex v to host h's leaf.
func (t *Tree) distToHost(v int32, h int, sc *scratch) float64 {
	return t.vertDist(v, t.leafVert[h], sc)
}

// Dist returns the predicted (embedded) distance d_T between hosts u and v.
// Unknown hosts yield +Inf.
func (t *Tree) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	if u > v {
		// Canonical order keeps float summation order fixed, making the
		// function exactly symmetric.
		u, v = v, u
	}
	if !t.Contains(u) || !t.Contains(v) {
		return math.Inf(1)
	}
	sc := getScratch(len(t.verts))
	defer putScratch(sc)
	return t.vertDist(t.leafVert[u], t.leafVert[v], sc)
}

// PredictBandwidth returns the predicted bandwidth BW_T(u,v) = C / d_T(u,v).
// Coincident embeddings (d_T == 0) predict +Inf.
func (t *Tree) PredictBandwidth(u, v int) float64 {
	d := t.Dist(u, v)
	if d == 0 {
		return math.Inf(1)
	}
	return t.c / d
}

// DistMatrix materializes all pairwise predicted distances for the hosts
// currently in the tree, indexed by position in Hosts(). The second return
// value maps matrix index to host id.
func (t *Tree) DistMatrix() (*metric.Matrix, []int) {
	hosts := t.Hosts()
	m := metric.NewMatrix(len(hosts))
	t.FillDist(m, joinRows(t.hostCap(), hosts))
	return m, hosts
}

// distancesFrom runs a single-source weighted BFS (the graph is a tree)
// filling sc.dist for every vertex reachable from src; sc.mark/sc.epoch
// identify which entries are valid.
func (t *Tree) distancesFrom(src int32, sc *scratch) {
	epoch := sc.nextEpoch()
	sc.mark[src] = epoch
	sc.dist[src] = 0
	queue := sc.queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for e := t.verts[cur].firstEdge; e >= 0; e = t.edges[e].next {
			to := t.edges[e].to
			if sc.mark[to] == epoch {
				continue
			}
			sc.mark[to] = epoch
			sc.dist[to] = sc.dist[cur] + t.edges[e].w
			queue = append(queue, to)
		}
	}
	sc.queue = queue[:0]
}

// AnchorParent returns host h's anchor (its parent in the anchor tree), or
// -1 for the root or an unknown host.
func (t *Tree) AnchorParent(h int) int {
	if h < 0 || h >= t.hostCap() {
		return -1
	}
	return int(t.anchorParent[h])
}

// AnchorChildren returns the hosts anchored at h, in join order.
// Kept: test seam: remove tests check re-anchoring.
func (t *Tree) AnchorChildren(h int) []int {
	var out []int
	if h < 0 || h >= t.hostCap() {
		return out
	}
	for c := t.firstChild[h]; c >= 0; c = t.nextSibling[c] {
		out = append(out, int(c))
	}
	return out
}

// AnchorNeighbors returns h's neighbors on the anchor tree (parent first,
// if any, then children). This adjacency is the overlay used by the
// clustering protocol.
func (t *Tree) AnchorNeighbors(h int) []int {
	var out []int
	if p := t.AnchorParent(h); p >= 0 {
		out = append(out, p)
	}
	if h < 0 || h >= t.hostCap() {
		return out
	}
	for c := t.firstChild[h]; c >= 0; c = t.nextSibling[c] {
		out = append(out, int(c))
	}
	return out
}

// AnchorDepth returns the number of anchor-tree hops from the root to h.
func (t *Tree) AnchorDepth(h int) int {
	depth := 0
	for p := t.AnchorParent(h); p >= 0; p = t.AnchorParent(p) {
		depth++
	}
	return depth
}

// AnchorStats summarizes the anchor tree's shape, the determinant of
// query routing length (Fig. 6) and per-peer gossip cost.
type AnchorStats struct {
	Hosts     int
	MaxDepth  int
	AvgDepth  float64
	MaxDegree int
	AvgDegree float64
}

// AnchorStats computes the overlay shape summary.
func (t *Tree) AnchorStats() AnchorStats {
	s := AnchorStats{Hosts: t.Len()}
	if s.Hosts == 0 {
		return s
	}
	depthSum, degreeSum := 0, 0
	for _, h := range t.order {
		d := t.AnchorDepth(h)
		depthSum += d
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
		deg := 0
		for c := t.firstChild[h]; c >= 0; c = t.nextSibling[c] {
			deg++
		}
		if t.anchorParent[h] >= 0 {
			deg++
		}
		degreeSum += deg
		if deg > s.MaxDegree {
			s.MaxDegree = deg
		}
	}
	s.AvgDepth = float64(depthSum) / float64(s.Hosts)
	s.AvgDegree = float64(degreeSum) / float64(s.Hosts)
	return s
}
