package kdiam

import (
	"fmt"
	"math"
	"sort"
)

// Point is a 2-d coordinate. It mirrors vivaldi.Point without importing it
// so the two packages stay independent.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// clusterForPair computes the largest cluster containing p and q whose
// members all lie within d of both, with every cross-side pair within l;
// it returns the first k members if at least k are found, nil otherwise.
func clusterForPair(points []Point, p, q int, d, l float64, k int) []int {
	// Lens membership.
	lens := make([]int, 0, 8)
	for x := range points {
		if points[x].Dist(points[p]) <= d && points[x].Dist(points[q]) <= d {
			lens = append(lens, x)
		}
	}
	if len(lens) < k {
		return nil
	}
	// Split by the signed area relative to the directed line p -> q.
	px, py := points[p].X, points[p].Y
	qx, qy := points[q].X, points[q].Y
	var leftIdx, rightIdx []int
	for _, x := range lens {
		cross := (qx-px)*(points[x].Y-py) - (qy-py)*(points[x].X-px)
		if cross >= 0 {
			leftIdx = append(leftIdx, x)
		} else {
			rightIdx = append(rightIdx, x)
		}
	}
	// Conflict edges: cross-side pairs farther than l apart.
	g := &bipartite{nLeft: len(leftIdx), nRight: len(rightIdx), adj: make([][]int, len(leftIdx))}
	for i, a := range leftIdx {
		for j, b := range rightIdx {
			if points[a].Dist(points[b]) > l {
				g.adj[i] = append(g.adj[i], j)
			}
		}
	}
	inL, inR := g.maxIndependentSet()
	members := make([]int, 0, len(lens))
	for i, ok := range inL {
		if ok {
			members = append(members, leftIdx[i])
		}
	}
	for j, ok := range inR {
		if ok {
			members = append(members, rightIdx[j])
		}
	}
	if len(members) < k {
		return nil
	}
	sort.Ints(members)
	if len(members) > k {
		members = members[:k]
	}
	return members
}

// Index caches pairwise distances of a fixed point set so repeated
// queries with different (k, l) skip the O(n^2) distance recomputation.
type Index struct {
	points []Point
	n      int
	dist   []float64 // p*n+q, p < q
}

// NewIndex builds the query index for the given points (copied).
func NewIndex(points []Point) *Index {
	pts := make([]Point, len(points))
	copy(pts, points)
	n := len(pts)
	dist := make([]float64, n*n)
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			dist[p*n+q] = pts[p].Dist(pts[q])
		}
	}
	return &Index{points: pts, n: n, dist: dist}
}

// Find returns the indices of k points with pairwise distance at most l,
// or nil if no such set exists. It is exact in 2-d Euclidean space: for
// each candidate determining pair (p, q) with d(p,q) <= l (scanned in
// lexicographic order, mirroring the tree-metric Algorithm 1's pair
// loop), the points within d(p,q) of both ends form a lens; same-side
// points of the lens are automatically within d(p,q) of each other, so a
// maximum independent set of the cross-side conflict graph (pairs
// further than l apart) yields the largest cluster whose diameter pair
// is (p, q).
func (ix *Index) Find(k int, l float64) ([]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("kdiam: size constraint k must be >= 2, got %d", k)
	}
	if l < 0 {
		return nil, fmt.Errorf("kdiam: diameter constraint l must be >= 0, got %v", l)
	}
	for p := 0; p < ix.n; p++ {
		for q := p + 1; q < ix.n; q++ {
			d := ix.dist[p*ix.n+q]
			if d > l {
				continue
			}
			if members := clusterForPair(ix.points, p, q, d, l, k); members != nil {
				return members, nil
			}
		}
	}
	return nil, nil
}
