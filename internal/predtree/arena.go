package predtree

import "sync"

// BFS scratch arena. Every tree walk (insertion search, distance query,
// removal repair) needs a queue, a predecessor table and a distance
// table sized by the vertex count; the distance fill keeps its own
// top-down arrays instead (fill.go). Allocating them per call was
// the dominant allocation source of forest construction (~876k allocs/op
// in the Fig. 3 benchmark before the flat refactor); instead they live in
// a pooled scratch arena that is reused across calls, across builds and
// across benchmark iterations. Visited-marking uses epoch stamps so a
// fresh walk costs O(1) setup instead of an O(V) clear.
//
// A scratch is owned by exactly one goroutine between get and put, so
// concurrent Dist callers each draw their own arena and the
// tree itself stays read-only — the property that makes a built Tree safe
// for concurrent queries.
type scratch struct {
	queue    []int32 // BFS queue (vertex indices)
	prevVert []int32 // BFS predecessor vertex
	prevEdge []int32 // half-edge index used to reach the vertex
	dist     []float64
	mark     []int32 // epoch stamps: mark[v] == epoch means visited
	epoch    int32

	// path output buffers, filled by Tree.path.
	pathVerts   []int32
	pathWeights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch arena ready for a tree with nVerts
// vertices.
func getScratch(nVerts int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.ensure(nVerts)
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// ensure grows the arena to cover nVerts vertices, preserving epoch
// validity: freshly grown mark entries are zero, which only reads as
// "visited" for epoch 0, so the epoch counter starts at 1.
func (sc *scratch) ensure(nVerts int) {
	if cap(sc.mark) >= nVerts {
		sc.mark = sc.mark[:nVerts]
		sc.prevVert = sc.prevVert[:nVerts]
		sc.prevEdge = sc.prevEdge[:nVerts]
		sc.dist = sc.dist[:nVerts]
		return
	}
	sc.mark = make([]int32, nVerts)
	sc.prevVert = make([]int32, nVerts)
	sc.prevEdge = make([]int32, nVerts)
	sc.dist = make([]float64, nVerts)
	sc.epoch = 0
}

// nextEpoch advances the visited stamp, clearing the mark table on the
// (practically unreachable) wraparound.
func (sc *scratch) nextEpoch() int32 {
	sc.epoch++
	if sc.epoch <= 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.epoch = 1
	}
	return sc.epoch
}
