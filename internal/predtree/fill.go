package predtree

import "bwcluster/internal/metric"

// The distance fill. A tree's predicted distance between hosts g and h
// is the sum of the edge weights on the g–h path, added up from the host
// that joined the tree first: distancesFrom's BFS from that host's leaf
// is the definition, and every matrix of predicted distances reproduces
// its float additions bit for bit. The fill makes the same additions in
// O(V) per source without a queue: it keeps the tree's vertices in a
// top-down order, walks from the source up to the root, then sets every
// other vertex from its parent in one linear pass.

// topDown is a tree's vertices in breadth-first order from its first
// host's leaf, so that every vertex comes after its parent. Slices are
// indexed by that position.
type topDown struct {
	parent []int32   // the parent's position; -1 at the root, position 0
	w      []float64 // weight of the edge to the parent (connect gives both halves one weight)
	leaf   []int32   // host id -> position of its leaf (hosts in the tree only)
}

// topDown returns t's vertex order. t must hold at least one host.
func (t *Tree) topDown() topDown {
	nv := len(t.verts)
	pos := make([]int32, nv) // vertex -> position+1, 0 while unseen
	root := t.leafVert[t.order[0]]
	verts := append(make([]int32, 0, nv), root)
	td := topDown{parent: append(make([]int32, 0, nv), -1), w: append(make([]float64, 0, nv), 0)}
	pos[root] = 1
	for i := 0; i < len(verts); i++ {
		for e := t.verts[verts[i]].firstEdge; e >= 0; e = t.edges[e].next {
			if to := t.edges[e].to; pos[to] == 0 {
				pos[to] = int32(len(verts)) + 1
				verts = append(verts, to)
				td.parent = append(td.parent, int32(i))
				td.w = append(td.w, t.edges[e].w)
			}
		}
	}
	td.leaf = make([]int32, t.hostCap())
	for _, h := range t.order {
		td.leaf[h] = pos[t.leafVert[h]] - 1
	}
	return td
}

// from sets d[v] to the distance from the vertex at position s to the
// one at v, for every position, with distancesFrom's additions: up the
// path from s to the root first, then every vertex off that path from
// its parent, in ascending position. path is scratch; from returns it
// for reuse.
func (td *topDown) from(s int32, d []float64, path []int32) []int32 {
	d[s] = 0
	path = append(path[:0], s)
	for v := s; td.parent[v] >= 0; v = td.parent[v] {
		d[td.parent[v]] = d[v] + td.w[v]
		path = append(path, td.parent[v])
	}
	// path holds descending positions ending at the root; the vertices
	// between two consecutive ones are off the path.
	lo := int32(0)
	for i := len(path) - 1; i >= -1; i-- {
		hi := int32(len(d))
		if i >= 0 {
			hi = path[i]
		}
		seg, parent, w := d[lo:hi], td.parent[lo:hi], td.w[lo:hi]
		for v := range seg {
			seg[v] = d[parent[v]] + w[v]
		}
		lo = hi + 1
	}
	return path
}

// FillDist writes t's predicted distance between every two of its hosts
// g and h into m at (rows[g], rows[h]) and (rows[h], rows[g]). rows is
// indexed by host id and must map t's hosts to distinct rows of m; the
// fill writes no other entry.
func (t *Tree) FillDist(m *metric.Matrix, rows []int) { fillMedian([]*Tree{t}, m, rows) }

// FillDist writes the forest's predicted distance (the median over its
// trees, as Dist) between every two of its hosts into m, as
// Tree.FillDist does.
func (f *Forest) FillDist(m *metric.Matrix, rows []int) { fillMedian(f.trees, m, rows) }

// joinRows maps each of hosts to its position, in a slice indexed by host
// id and capacity wide.
func joinRows(capacity int, hosts []int) []int {
	rows := make([]int, capacity)
	for i, h := range hosts {
		rows[h] = i
	}
	return rows
}

// fillMedian writes the median over trees of each host pair's distance
// into m (see Tree.FillDist). Each tree's distance is summed from the
// pair's earlier joiner in that tree, so the trees reach a pair from
// different sources at different times. Every tree but the last parks
// its value: the first in the upper triangle of m, the second in the
// lower one, any others in scratch matrices. The last tree's pass reads
// them back with its own value and writes the median to both triangles.
func fillMedian(trees []*Tree, m *metric.Matrix, rows []int) {
	if trees[0].Len() == 0 {
		return
	}
	n, data := m.N(), m.Data()
	last := len(trees) - 1
	middle := make([][]float64, max(last-2, 0)) // parked values of trees 2 .. last-1
	for i := range middle {
		middle[i] = make([]float64, n*n)
	}
	ds := make([]float64, len(trees)) // the median's scratch past three trees
	var path []int32
	for ti, t := range trees {
		park := data
		if ti >= 2 && ti < last {
			park = middle[ti-2]
		}
		td := t.topDown()
		d := make([]float64, len(td.parent))
		// The hosts in t's join order: their leaves and their rows.
		leaf := make([]int32, len(t.order))
		row := make([]int, len(t.order))
		for a, h := range t.order {
			leaf[a], row[a] = td.leaf[h], rows[h]
		}
		for a := range leaf {
			path = td.from(leaf[a], d, path)
			for b := a + 1; b < len(leaf); b++ {
				lo, hi := row[a], row[b]
				if lo > hi {
					lo, hi = hi, lo
				}
				upper, lower, v := lo*n+hi, hi*n+lo, d[leaf[b]]
				switch {
				case ti == 1 && ti < last:
					park[lower] = v
					continue
				case ti < last:
					park[upper] = v
					continue
				case last == 1:
					v = (data[upper] + v) / 2
				case last == 2:
					v = med3(data[upper], data[lower], v)
				case last > 2:
					ds[0], ds[1], ds[last] = data[upper], data[lower], v
					for i, mid := range middle {
						ds[i+2] = mid[upper]
					}
					v = median(ds)
				}
				data[upper], data[lower] = v, v
			}
		}
	}
}

// med3 is the median of three, without sorting: median's value for any
// three numbers that are not NaN.
func med3(a, b, c float64) float64 {
	return max(min(a, b), min(max(a, b), c))
}
