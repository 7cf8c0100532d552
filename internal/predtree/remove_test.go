package predtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

// checkTreeInvariants verifies the structural contract Remove must
// preserve: symmetric adjacency, a connected acyclic anchor tree over
// exactly the live hosts, live edge creators, label/distance agreement,
// and no live reference into a freed arena slot.
func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	hosts := tr.Hosts()
	if len(hosts) == 0 {
		return
	}

	freed := make(map[int32]bool, len(tr.freeVerts))
	for _, v := range tr.freeVerts {
		freed[v] = true
	}
	freedEdge := make(map[int32]bool, len(tr.freeEdges))
	for _, e := range tr.freeEdges {
		freedEdge[e] = true
	}
	live := make(map[int]bool, len(hosts))
	for _, h := range hosts {
		live[h] = true
	}

	// Adjacency: every half-edge has a reverse with the same weight; no
	// edge touches a freed vertex or is threaded through a freed slot;
	// creators are live hosts.
	for vi := range tr.verts {
		v := int32(vi)
		for e := tr.verts[v].firstEdge; e >= 0; e = tr.edges[e].next {
			if freed[v] {
				t.Fatalf("freed vertex %d still has edges", v)
			}
			if freedEdge[e] {
				t.Fatalf("adjacency of vertex %d runs through freed edge slot %d", v, e)
			}
			to := tr.edges[e].to
			if to < 0 || freed[to] {
				t.Fatalf("edge %d->%d targets a freed or invalid vertex", v, to)
			}
			if !live[int(tr.edges[e].creator)] {
				t.Fatalf("edge %d->%d created by non-live host %d", v, to, tr.edges[e].creator)
			}
			back := false
			for r := tr.verts[to].firstEdge; r >= 0; r = tr.edges[r].next {
				if tr.edges[r].to == v && tr.edges[r].w == tr.edges[e].w {
					back = true
					break
				}
			}
			if !back {
				t.Fatalf("edge %d->%d has no symmetric reverse", v, to)
			}
		}
	}

	// Host registers point at live, correctly-typed vertices.
	for _, h := range hosts {
		lv := tr.leafVert[h]
		if lv < 0 || freed[lv] || tr.verts[lv].host != int32(h) {
			t.Fatalf("host %d leaf register broken (vertex %d)", h, lv)
		}
		if tv := tr.tVert[h]; tv >= 0 && (freed[tv] || tr.verts[tv].host != -1) {
			t.Fatalf("host %d inner register broken (vertex %d)", h, tv)
		}
	}

	// Anchor tree: n-1 parent links among live hosts, children lists
	// consistent, one root, no cycles (depth bounded by walking n steps).
	root := tr.Root()
	if !live[root] {
		t.Fatalf("root %d is not live", root)
	}
	edges := 0
	for _, h := range hosts {
		p := tr.AnchorParent(h)
		if h == root {
			if p != -1 {
				t.Fatalf("root %d has parent %d", h, p)
			}
			continue
		}
		if p < 0 || !live[p] {
			t.Fatalf("host %d has dead or missing anchor %d", h, p)
		}
		edges++
		found := false
		for _, c := range tr.AnchorChildren(p) {
			if c == h {
				found = true
			}
			if !live[c] {
				t.Fatalf("host %d lists dead child %d", p, c)
			}
		}
		if !found {
			t.Fatalf("host %d missing from children of anchor %d", h, p)
		}
		steps := 0
		for cur := h; cur >= 0; cur = tr.AnchorParent(cur) {
			if steps++; steps > len(hosts) {
				t.Fatalf("anchor chain of %d does not terminate", h)
			}
		}
	}
	if edges != len(hosts)-1 {
		t.Fatalf("anchor tree has %d edges, want %d", edges, len(hosts)-1)
	}

	// Labels still reproduce tree distances (the caterpillar invariant
	// Remove's heir scheme exists to preserve).
	labels := make(map[int]Label, len(hosts))
	for _, h := range hosts {
		l, err := tr.Label(h)
		if err != nil {
			t.Fatalf("label %d: %v", h, err)
		}
		labels[h] = l
	}
	for i, u := range hosts {
		for _, v := range hosts[i+1:] {
			want := tr.Dist(u, v)
			got, err := LabelDist(labels[u], labels[v])
			if err != nil {
				t.Fatalf("LabelDist(%d,%d): %v", u, v, err)
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("LabelDist(%d,%d)=%v, tree says %v\nLu=%v\nLv=%v",
					u, v, got, want, labels[u], labels[v])
			}
		}
	}
}

func TestRemoveErrors(t *testing.T) {
	o := metric.NewMatrix(2)
	o.Set(0, 1, 10)
	tr, err := Build(o, 100, SearchFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(7); err == nil {
		t.Error("removing an absent host should fail")
	}
	if err := tr.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(0); err == nil {
		t.Error("removing the last host should fail")
	}
}

// TestRemovePreservesSurvivorDistances is the core repair guarantee:
// eviction splices zero-sum, so every surviving pairwise distance is
// unchanged (up to float reassociation in degree-2 merges).
func TestRemovePreservesSurvivorDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, mode := range []SearchMode{SearchFull, SearchAnchor} {
		for trial := 0; trial < 6; trial++ {
			n := 8 + rng.Intn(24)
			o := testutil.NoisyTreeMetric(n, 0.2, rng)
			tr, err := Build(o, 100, mode, testutil.Perm(n, rng))
			if err != nil {
				t.Fatal(err)
			}
			before := make(map[[2]int]float64)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					before[[2]int{i, j}] = tr.Dist(i, j)
				}
			}
			// Remove a third of the hosts, including the root at least once.
			victims := testutil.Perm(n, rng)[:n/3+1]
			if trial%2 == 0 {
				victims[0] = tr.Root()
			}
			gone := make(map[int]bool)
			for _, h := range victims {
				if gone[h] {
					continue
				}
				if err := tr.Remove(h); err != nil {
					t.Fatalf("mode %d n=%d remove %d: %v", mode, n, h, err)
				}
				gone[h] = true
				checkTreeInvariants(t, tr)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if gone[i] || gone[j] {
						if d := tr.Dist(i, j); !math.IsInf(d, 1) {
							t.Fatalf("removed pair (%d,%d) has finite distance %v", i, j, d)
						}
						continue
					}
					want := before[[2]int{i, j}]
					got := tr.Dist(i, j)
					if math.Abs(got-want) > 1e-9*(1+want) {
						t.Fatalf("mode %d n=%d: survivor d(%d,%d) drifted %v -> %v",
							mode, n, i, j, want, got)
					}
				}
			}
		}
	}
}

// TestRemoveRootPromotesHeir removes the root repeatedly until two hosts
// remain; each promotion must keep the anchor tree rooted and exact.
func TestRemoveRootPromotesHeir(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	n := 18
	o := testutil.RandomTreeMetric(n, rng)
	tr, err := Build(o, 100, SearchAnchor, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tr.Len() > 2 {
		if err := tr.Remove(tr.Root()); err != nil {
			t.Fatal(err)
		}
		checkTreeInvariants(t, tr)
	}
	// Survivor distance still matches the oracle on an exact tree metric.
	hosts := tr.Hosts()
	want := o.Dist(hosts[0], hosts[1])
	if got := tr.Dist(hosts[0], hosts[1]); math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("final pair distance %v, want %v", got, want)
	}
}

// TestRemoveThenAdd covers the churn cycle the membership layer drives:
// remove ~25% of the hosts, re-add some through the normal insertion
// machinery, and verify the tree is exact again on a tree metric.
func TestRemoveThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, mode := range []SearchMode{SearchFull, SearchAnchor} {
		n := 24
		o := testutil.RandomTreeMetric(n, rng)
		tr, err := Build(o, 100, mode, testutil.Perm(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		victims := testutil.Perm(n, rng)[:n/4]
		for _, h := range victims {
			if err := tr.Remove(h); err != nil {
				t.Fatal(err)
			}
		}
		checkTreeInvariants(t, tr)
		for i, h := range victims {
			if i%2 == 1 {
				continue // leave some out for good
			}
			if err := tr.Add(h, o); err != nil {
				t.Fatalf("mode %d re-add %d: %v", mode, h, err)
			}
			checkTreeInvariants(t, tr)
		}
		for _, u := range tr.Hosts() {
			for _, v := range tr.Hosts() {
				if u >= v {
					continue
				}
				want := o.Dist(u, v)
				if got := tr.Dist(u, v); math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("mode %d: d(%d,%d)=%v, want %v", mode, u, v, got, want)
				}
			}
		}
	}
}

// TestChurnDeterminism: the same operation sequence yields bit-identical
// wire bytes, run to run — the determinism contract Remove extends to
// churned trees.
func TestChurnDeterminism(t *testing.T) {
	churn := func() []byte {
		rng := rand.New(rand.NewSource(109))
		o := testutil.NoisyTreeMetric(30, 0.25, rng)
		f, err := BuildForest(o, 100, SearchAnchor, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		present := make([]bool, 30)
		for i := range present {
			present[i] = true
		}
		liveCount := 30
		for op := 0; op < 60; op++ {
			h := rng.Intn(30)
			if present[h] && liveCount > 2 {
				if err := f.Remove(h); err != nil {
					t.Fatal(err)
				}
				present[h] = false
				liveCount--
			} else if !present[h] {
				if err := f.Add(h, o); err != nil {
					t.Fatal(err)
				}
				present[h] = true
				liveCount++
			}
		}
		blob, err := f.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := churn(), churn()
	if !bytes.Equal(a, b) {
		t.Fatalf("same churn sequence produced different wire bytes (%d vs %d)", len(a), len(b))
	}
}

// TestChurnFuzz hammers random remove/add sequences on a noisy metric,
// checking the full invariant set after every operation.
func TestChurnFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	n := 20
	o := testutil.NoisyTreeMetric(n, 0.4, rng)
	tr, err := Build(o, 100, SearchAnchor, testutil.Perm(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	liveCount := n
	for op := 0; op < 150; op++ {
		h := rng.Intn(n)
		if tr.Contains(h) && liveCount > 2 {
			if err := tr.Remove(h); err != nil {
				t.Fatalf("op %d remove %d: %v", op, h, err)
			}
			liveCount--
		} else if !tr.Contains(h) {
			if err := tr.Add(h, o); err != nil {
				t.Fatalf("op %d add %d: %v", op, h, err)
			}
			liveCount++
		} else {
			continue
		}
		checkTreeInvariants(t, tr)
	}
}

// TestRemoveArenaReuse: remove/re-add cycles must recycle freed slots
// instead of growing the arenas without bound.
func TestRemoveArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	n := 32
	o := testutil.NoisyTreeMetric(n, 0.2, rng)
	tr, err := Build(o, 100, SearchAnchor, nil)
	if err != nil {
		t.Fatal(err)
	}
	vertsLen, edgesLen := len(tr.verts), len(tr.edges)
	const cycles = 64
	for cycle := 0; cycle < cycles; cycle++ {
		h := rng.Intn(n)
		if err := tr.Remove(h); err != nil {
			t.Fatal(err)
		}
		if err := tr.Add(h, o); err != nil {
			t.Fatal(err)
		}
	}
	// Without slot reuse every cycle appends ~2 vertices and >= 4
	// half-edges (~+128/+256 here). With the free-list only the slow
	// accumulation of degree-3 junction structure remains — a small
	// fraction of a slot per cycle.
	if len(tr.verts) > vertsLen+cycles/2 || len(tr.edges) > edgesLen+cycles {
		t.Fatalf("arena growth under churn: verts %d -> %d, edges %d -> %d over %d cycles",
			vertsLen, len(tr.verts), edgesLen, len(tr.edges), cycles)
	}
}

// TestChurnedGobRoundTrip: a post-churn tree (holes in the arenas)
// persists compacted, decodes to the same geometry, and re-encodes to
// identical bytes.
func TestChurnedGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	n := 24
	o := testutil.NoisyTreeMetric(n, 0.2, rng)
	tr, err := Build(o, 100, SearchAnchor, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range testutil.Perm(n, rng)[:n/4] {
		if err := tr.Remove(h); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.freeVerts) == 0 {
		t.Fatal("churn left no freed slots; compaction untested")
	}
	blob, err := tr.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var dec Tree
	if err := dec.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if len(dec.verts) >= len(tr.verts) {
		t.Fatalf("decode did not compact: %d verts vs %d live+free", len(dec.verts), len(tr.verts))
	}
	checkTreeInvariants(t, &dec)
	for _, u := range tr.Hosts() {
		for _, v := range tr.Hosts() {
			if u >= v {
				continue
			}
			if d1, d2 := tr.Dist(u, v), dec.Dist(u, v); d1 != d2 {
				t.Fatalf("decoded distance d(%d,%d) %v vs %v", u, v, d1, d2)
			}
		}
	}
	re, err := dec.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, blob) {
		t.Fatalf("re-encode after decode changed the bytes (%d vs %d)", len(re), len(blob))
	}
}

func TestEpochCountsMembershipChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	n := 10
	o := testutil.RandomTreeMetric(n, rng)
	f, err := BuildForest(o, 100, SearchAnchor, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Epoch(); got != uint64(n) {
		t.Fatalf("post-build epoch %d, want %d", got, n)
	}
	if err := f.Remove(3); err != nil {
		t.Fatal(err)
	}
	if got := f.Epoch(); got != uint64(n)+1 {
		t.Fatalf("post-remove epoch %d, want %d", got, n+1)
	}
	if err := f.Add(3, o); err != nil {
		t.Fatal(err)
	}
	if got := f.Epoch(); got != uint64(n)+2 {
		t.Fatalf("post-re-add epoch %d, want %d", got, n+2)
	}
	if err := f.Remove(99); err == nil {
		t.Fatal("forest remove of absent host should fail")
	}
}

// BenchmarkIncrementalRemoveAdd is the headline repair economics number:
// evicting one host from a 256-host, 3-tree forest and re-inserting it
// incrementally, against rebuilding the whole forest from scratch (what
// a membership change cost before Remove existed). The bench gate
// (cmd/bwc-benchgate) requires the incremental path to be at least 10x
// faster than the rebuild.
func BenchmarkIncrementalRemoveAdd(b *testing.B) {
	const n, count = 256, 3
	o := testutil.NoisyTreeMetric(n, 0.1, rand.New(rand.NewSource(5)))
	b.Run("incremental", func(b *testing.B) {
		f, err := BuildForest(o, 100, SearchAnchor, count, rand.New(rand.NewSource(6)))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Remove(17); err != nil {
				b.Fatal(err)
			}
			if err := f.Add(17, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildForest(o, 100, SearchAnchor, count, rand.New(rand.NewSource(6))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestForestRemoveKeepsMedian: the forest median distance stays the
// oracle distance for survivors on an exact tree metric.
func TestForestRemoveKeepsMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	n := 16
	o := testutil.RandomTreeMetric(n, rng)
	f, err := BuildForest(o, 100, SearchAnchor, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{2, 9, 14} {
		if err := f.Remove(h); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != n-3 {
		t.Fatalf("forest len %d, want %d", f.Len(), n-3)
	}
	for _, u := range f.Hosts() {
		for _, v := range f.Hosts() {
			if u >= v {
				continue
			}
			want := o.Dist(u, v)
			if got := f.Dist(u, v); math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("forest d(%d,%d)=%v, want %v", u, v, got, want)
			}
		}
	}
}
