package kdiam

import (
	"math/rand"
	"testing"
)

func randPoints(n int, scale float64, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * scale, Y: rng.Float64() * scale}
	}
	return pts
}

// bruteMatching computes maximum bipartite matching size by backtracking.
func bruteMatching(g *bipartite) int {
	usedR := make([]bool, g.nRight)
	var rec func(u int) int
	rec = func(u int) int {
		if u == g.nLeft {
			return 0
		}
		best := rec(u + 1) // leave u unmatched
		for _, v := range g.adj[u] {
			if !usedR[v] {
				usedR[v] = true
				if got := 1 + rec(u+1); got > best {
					best = got
				}
				usedR[v] = false
			}
		}
		return best
	}
	return rec(0)
}

func TestHopcroftKarpMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		nl, nr := 1+rng.Intn(7), 1+rng.Intn(7)
		g := &bipartite{nLeft: nl, nRight: nr, adj: make([][]int, nl)}
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Float64() < 0.4 {
					g.adj[u] = append(g.adj[u], v)
				}
			}
		}
		matchL, matchR := g.maxMatching()
		size := 0
		for u, v := range matchL {
			if v != unmatched {
				size++
				if matchR[v] != u {
					t.Fatalf("inconsistent matching: matchL[%d]=%d but matchR[%d]=%d", u, v, v, matchR[v])
				}
			}
		}
		if want := bruteMatching(g); size != want {
			t.Fatalf("trial %d: HK size %d, brute force %d", trial, size, want)
		}
	}
}

func TestMaxIndependentSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		nl, nr := 1+rng.Intn(6), 1+rng.Intn(6)
		g := &bipartite{nLeft: nl, nRight: nr, adj: make([][]int, nl)}
		edges := 0
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Float64() < 0.35 {
					g.adj[u] = append(g.adj[u], v)
					edges++
				}
			}
		}
		left, right := g.maxIndependentSet()
		// Independence: no selected cross edge.
		for u := 0; u < nl; u++ {
			if !left[u] {
				continue
			}
			for _, v := range g.adj[u] {
				if right[v] {
					t.Fatalf("trial %d: edge (%d,%d) inside independent set", trial, u, v)
				}
			}
		}
		// Maximality via König: |MIS| = nl + nr - maxMatching.
		size := 0
		for _, ok := range left {
			if ok {
				size++
			}
		}
		for _, ok := range right {
			if ok {
				size++
			}
		}
		if want := nl + nr - bruteMatching(g); size != want {
			t.Fatalf("trial %d: MIS size %d, want %d (edges=%d)", trial, size, want, edges)
		}
	}
}

func TestFindClusterValidation(t *testing.T) {
	ix := NewIndex(randPoints(5, 10, rand.New(rand.NewSource(3))))
	if _, err := ix.Find(1, 5); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := ix.Find(2, -1); err == nil {
		t.Error("l<0 should fail")
	}
}

func TestFindClusterSimple(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {0, 1}, {50, 50}, {51, 50}}
	ix := NewIndex(pts)
	got, err := ix.Find(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !valid(pts, got, 2) {
		t.Fatalf("got %v", got)
	}
	got, err = ix.Find(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("impossible query returned %v", got)
	}
}

// Exactness: Index.Find succeeds exactly when brute force does, on random
// point sets, and its output always satisfies the constraint.
func TestFindClusterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		pts := randPoints(n, 10, rng)
		ix := NewIndex(pts)
		for _, l := range []float64{1, 3, 6, 15} {
			for k := 2; k <= n; k++ {
				fast, err := ix.Find(k, l)
				if err != nil {
					t.Fatal(err)
				}
				slow := bruteForce(pts, k, l)
				if (fast == nil) != (slow == nil) {
					t.Fatalf("n=%d k=%d l=%v: kdiam=%v brute=%v pts=%v", n, k, l, fast, slow, pts)
				}
				if fast != nil {
					if len(fast) != k {
						t.Fatalf("size %d, want %d", len(fast), k)
					}
					if !valid(pts, fast, l*(1+1e-9)) {
						t.Fatalf("n=%d k=%d l=%v: %v violates constraint", n, k, l, fast)
					}
				}
			}
		}
	}
}

// Geometric fact the algorithm relies on: two points in the same half-lens
// of a pair (p,q) are within d(p,q) of each other.
func TestHalfLensDiameterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		p := Point{X: 0, Y: 0}
		q := Point{X: 1 + rng.Float64()*10, Y: 0}
		d := p.Dist(q)
		// Sample points in the lens.
		var upper []Point
		for len(upper) < 6 {
			c := Point{X: rng.Float64()*2*d - d/2, Y: rng.Float64() * d}
			if c.Dist(p) <= d && c.Dist(q) <= d && c.Y >= 0 {
				upper = append(upper, c)
			}
		}
		for i := 0; i < len(upper); i++ {
			for j := i + 1; j < len(upper); j++ {
				if upper[i].Dist(upper[j]) > d*(1+1e-9) {
					t.Fatalf("same-side points %v and %v are %v apart (> d=%v)",
						upper[i], upper[j], upper[i].Dist(upper[j]), d)
				}
			}
		}
	}
}

// Index.Find, the package's FindCluster query, answers exactly when
// brute force does, with a valid cluster, over larger point sets than
// TestFindClusterMatchesBruteForce and with a reused index.
func TestIndexMatchesFindCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(10)
		pts := randPoints(n, 10, rng)
		ix := NewIndex(pts)
		for _, l := range []float64{1, 4, 12} {
			for k := 2; k <= n; k++ {
				indexed, err := ix.Find(k, l)
				if err != nil {
					t.Fatal(err)
				}
				brute := bruteForce(pts, k, l)
				if (brute == nil) != (indexed == nil) {
					t.Fatalf("n=%d k=%d l=%v: brute=%v indexed=%v", n, k, l, brute, indexed)
				}
				if indexed != nil && (len(indexed) != k || !valid(pts, indexed, l*(1+1e-9))) {
					t.Fatalf("n=%d k=%d l=%v: indexed=%v is not a valid %d-cluster", n, k, l, indexed, k)
				}
			}
		}
	}
	ix := NewIndex(randPoints(4, 10, rng))
	if _, err := ix.Find(1, 5); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := ix.Find(2, -1); err == nil {
		t.Error("l<0 should fail")
	}
}

func TestValid(t *testing.T) {
	pts := []Point{{0, 0}, {3, 0}}
	if valid(pts, []int{0, 1}, 1) {
		t.Error("distant pair accepted")
	}
	if !valid(pts, []int{0, 1}, 5) {
		t.Error("close pair rejected")
	}
	if !valid(pts, nil, 0) {
		t.Error("empty selection rejected")
	}
}

// valid reports whether the selected points have pairwise distance at
// most l.
func valid(points []Point, sel []int, l float64) bool {
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if points[sel[i]].Dist(points[sel[j]]) > l {
				return false
			}
		}
	}
	return true
}

// bruteForce finds k points with pairwise distance at most l by
// backtracking over all subsets. Exact and exponential; test reference.
func bruteForce(points []Point, k int, l float64) []int {
	picked := make([]int, 0, k)
	var rec func(next int) []int
	rec = func(next int) []int {
		if len(picked) == k {
			out := make([]int, k)
			copy(out, picked)
			return out
		}
		if len(points)-next < k-len(picked) {
			return nil
		}
		for x := next; x < len(points); x++ {
			ok := true
			for _, m := range picked {
				if points[m].Dist(points[x]) > l {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			picked = append(picked, x)
			if out := rec(x + 1); out != nil {
				return out
			}
			picked = picked[:len(picked)-1]
		}
		return nil
	}
	return rec(0)
}
