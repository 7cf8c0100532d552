package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
	"bwcluster/internal/predtree"
	"bwcluster/internal/testutil"
)

// Link and Splice keep the neighbors sorted and every entry at its
// neighbor's position, and linking a neighbor twice changes nothing.
func TestPeerLink(t *testing.T) {
	p := NewPeer(0, []int{5, 1, 3})
	p.SetAggrNode(3, []int{30})
	p.SetAggrNode(5, []int{50})
	p.SetAggrCRT(5, []int{55})
	p.Link(4)
	p.Link(3)
	if got := p.Neighbors(); !slices.Equal(got, []int{1, 3, 4, 5}) {
		t.Errorf("neighbors %v, want [1 3 4 5]", got)
	}
	check := func(when string) {
		t.Helper()
		got := fmt.Sprint(p.AggrNode(3), p.AggrNode(4), p.AggrNode(5), p.CRT(4), p.CRT(5))
		if want := "[30] [] [50] [] [55]"; got != want {
			t.Errorf("%s: node info of 3, 4, 5 and CRTs of 4, 5 are %s, want %s", when, got, want)
		}
	}
	check("after Link")
	p.Splice(1, nil)
	check("after Splice")
}

// The splice rule links every survivor of a departed host to the
// lowest-id survivor, and the hub back to each of them.
func TestPeerSplice(t *testing.T) {
	survivors := []int{2, 5, 7}
	hub := NewPeer(2, []int{1, 3})
	if got := hub.Splice(3, survivors); !slices.Equal(got, []int{5, 7}) {
		t.Errorf("hub gained %v, want [5 7]", got)
	}
	if got := hub.Neighbors(); !slices.Equal(got, []int{1, 5, 7}) {
		t.Errorf("hub neighbors %v, want [1 5 7]", got)
	}
	leaf := NewPeer(7, []int{9, 3})
	if got := leaf.Splice(3, survivors); !slices.Equal(got, []int{2}) {
		t.Errorf("survivor gained %v, want [2]", got)
	}
	if got := leaf.Neighbors(); !slices.Equal(got, []int{2, 9}) {
		t.Errorf("survivor neighbors %v, want [2 9]", got)
	}
	if got := NewPeer(4, []int{3}).Splice(3, nil); len(got) != 0 {
		t.Errorf("no survivors: gained %v", got)
	}
}

// Gossip from a host that is not a neighbor, such as a late message over
// a link Splice removed, is dropped: the setters report no change, store
// nothing and keep the local-search table.
func TestSetAggrIgnoresNonNeighbors(t *testing.T) {
	m := metric.FromFunc(4, func(i, j int) float64 { return float64(i + j) })
	d := fullDist(m)
	classes := []float64{10}
	p := NewPeer(0, []int{1, 2})
	p.SetAggrNode(1, []int{1, 3})
	p.SetAggrNode(2, []int{2})
	p.Splice(2, nil)
	if _, err := p.RecomputeSelfCRT(d, classes); err != nil {
		t.Fatal(err)
	}
	space := p.clusteringSpace()
	for _, from := range []int{2, 3} {
		if p.SetAggrNode(from, []int{2, 3}) {
			t.Errorf("SetAggrNode from non-neighbor %d reported a change", from)
		}
		if p.SetAggrCRT(from, []int{4}) {
			t.Errorf("SetAggrCRT from non-neighbor %d reported a change", from)
		}
		if got := p.AggrNode(from); len(got) != 0 {
			t.Errorf("node info from non-neighbor %d stored: %v", from, got)
		}
	}
	if got := p.clusteringSpace(); !slices.Equal(got, space) {
		t.Errorf("clustering space %v after non-neighbor gossip, want %v", got, space)
	}
	if !p.TableCurrent(d, classes) {
		t.Error("non-neighbor gossip cleared the local-search table")
	}
	if !p.SetAggrNode(1, []int{1}) || p.TableCurrent(d, classes) {
		t.Error("a neighbor's new node info must be stored and clear the table")
	}
}

// A host a peer names but the snapshot lacks (the async runtime swaps
// snapshots before it resets survivors) is an error naming the host,
// never a silent read of another host's row.
func TestLocalSearchRejectsHostMissingFromSnapshot(t *testing.T) {
	m := metric.FromFunc(3, func(i, j int) float64 { return 1 })
	d := fullDist(m)
	p := NewPeer(0, []int{1})
	p.SetAggrNode(1, []int{1, 7})
	if _, err := p.RecomputeSelfCRT(d, []float64{1}); err == nil || !strings.Contains(err.Error(), "host 7") {
		t.Errorf("RecomputeSelfCRT error = %v, want one naming host 7", err)
	}
	p.selfCRT = []int{3}
	hop, err := p.QueryHop(d, 3, 0, 1, -1)
	if err == nil || !strings.Contains(err.Error(), "host 7") {
		t.Errorf("QueryHop error = %v, want one naming host 7", err)
	}
	if hop.Members != nil {
		t.Errorf("QueryHop answered %v over a space with an unknown host", hop.Members)
	}
	if got := d.Between(0, 7); !math.IsInf(got, 1) {
		t.Errorf("Between(0, 7) = %v, want +Inf", got)
	}
}

// checkAgainstMaterialized asserts that p's self CRT for class ci and its
// local search for (k, ci) equal Algorithm 1 over copied, an independent
// copy of p's clustering space ids.
func checkAgainstMaterialized(t *testing.T, p *Peer, d *Dist, ids []int, copied *metric.Matrix, k, ci int, l float64) {
	t.Helper()
	if want, _ := cluster.MaxClusterSize(copied, l); p.selfCRT[ci] != want {
		t.Fatalf("peer %d class %v: self CRT %d, copy gives %d", p.id, l, p.selfCRT[ci], want)
	}
	checkHop(t, p, d, ids, copied, k, ci, l)
}

// checkHop asserts that p's local search for (k, ci) over d equals
// Algorithm 1 over copied, a copy of p's current clustering space ids,
// whenever p's self CRT, current or stale, admits k.
func checkHop(t *testing.T, p *Peer, d *Dist, ids []int, copied *metric.Matrix, k, ci int, l float64) {
	t.Helper()
	hop, err := p.QueryHop(d, k, ci, l, -1)
	if err != nil {
		t.Fatalf("peer %d k=%d l=%v: %v", p.id, k, l, err)
	}
	var want []int
	if k <= p.selfCRT[ci] {
		sel, err := cluster.FindCluster(copied, k, l)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sel {
			want = append(want, ids[s])
		}
	}
	if !slices.Equal(hop.Members, want) {
		t.Fatalf("peer %d k=%d l=%v: local search %v, copy gives %v", p.id, k, l, hop.Members, want)
	}
}

// propNodeByComparator is the definition PropNode must keep: sort the
// candidates with a comparator that reads Between on every call, ties on
// host id, keep n_cut, store them sorted.
func propNodeByComparator(p *Peer, x int, d *Dist, nCut int) []int {
	ids := slices.DeleteFunc(p.nodes(x), func(u int) bool { return u == x })
	sort.Slice(ids, func(i, j int) bool {
		di, dj := d.Between(x, ids[i]), d.Between(x, ids[j])
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	ids = ids[:min(nCut, len(ids))]
	sort.Ints(ids)
	return ids
}

// TestPropNodeMatchesComparatorOrder checks PropNode, which looks each
// candidate's distance up once, against propNodeByComparator for every
// peer of a converged 190-host network toward every neighbor.
func TestPropNodeMatchesComparatorOrder(t *testing.T) {
	for _, nCut := range []int{3, DefaultNCut, 40} {
		nw, _, _ := buildNetwork(t, 190, 0.2, Config{NCut: nCut, Classes: classSpread()}, int64(nCut))
		for _, h := range nw.hosts {
			p := nw.peers[h]
			for _, x := range p.neighbors {
				want := propNodeByComparator(p, x, nw.dist, nCut)
				if got := p.PropNode(x, nw.dist, nCut); !slices.Equal(got, want) {
					t.Fatalf("n_cut %d: PropNode(%d -> %d) = %v, comparator order gives %v", nCut, h, x, got, want)
				}
			}
		}
	}
}

// Predicted distances on a real network rarely tie, so ties and hosts
// missing from the snapshot (+Inf) get their own case: distances drawn
// from {1, 2, 3} over 40 hosts, and candidates 40..44 that the snapshot
// does not hold.
func TestPropNodeTiesAndMissingHosts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	m := metric.FromFunc(n, func(i, j int) float64 { return float64(1 + rng.Intn(3)) })
	d := fullDist(m)
	p := NewPeer(0, []int{1, 2, 3})
	p.SetAggrNode(1, []int{4, 5, 6, 7, 8, 9, 40, 41})
	p.SetAggrNode(2, []int{10, 11, 12, 13, 14, 15, 16, 42})
	p.SetAggrNode(3, []int{17, 18, 19, 20, 43, 44})
	for _, nCut := range []int{1, 4, 10, 30} {
		for _, x := range p.neighbors {
			want := propNodeByComparator(p, x, d, nCut)
			if got := p.PropNode(x, d, nCut); !slices.Equal(got, want) {
				t.Errorf("n_cut %d: PropNode(0 -> %d) = %v, comparator order gives %v", nCut, x, got, want)
			}
		}
	}
}

// A converged peer answers its local searches from its ladder table; the
// answers and the self CRT must equal Algorithm 1 over a materialized copy
// of the space, for every peer, every class and k = 2..16. So must the
// hops in the two states the table does not describe (checkStaleHops).
func TestQueryHopMatchesMaterializedSpace(t *testing.T) {
	cfg := Config{NCut: DefaultNCut, Classes: classSpread()}
	ks := make([]int, 0, 15)
	for k := 2; k <= 16; k++ {
		ks = append(ks, k)
	}
	for _, n := range []int{64, 190} {
		for seed := int64(1); seed <= 3; seed++ {
			nw, _, _ := buildNetwork(t, n, 0.2, cfg, seed)
			rng := rand.New(rand.NewSource(seed))
			for _, h := range nw.Hosts() {
				p := nw.peers[h]
				if !p.TableCurrent(nw.dist, cfg.Classes) {
					t.Fatalf("converged peer %d has no current table", h)
				}
				ids := p.clusteringSpace()
				copied := materialize(nw.dist, ids)
				for ci, l := range cfg.Classes {
					for _, k := range ks {
						checkAgainstMaterialized(t, p, nw.dist, ids, copied, k, ci, l)
					}
				}
				checkStaleHops(t, p, nw.dist, cfg.Classes, ks, rng)
			}
		}
	}
}

// checkStaleHops checks p's local searches in the two states its table
// does not describe, each against Algorithm 1 over a copy of the current
// space: over a swapped snapshot, and after new node info from a
// neighbor with no recompute. It leaves p's node info changed.
func checkStaleHops(t *testing.T, p *Peer, d *Dist, classes []float64, ks []int, rng *rand.Rand) {
	t.Helper()
	ids := p.clusteringSpace()
	swapped := scrambled(d, rng)
	copied := materialize(swapped, ids)
	for ci, l := range classes {
		for _, k := range ks {
			checkHop(t, p, swapped, ids, copied, k, ci, l)
		}
	}
	// Drop the lowest id of the largest node-info entry.
	big := -1
	for i, nodes := range p.aggrNode {
		if len(nodes) > 0 && (big < 0 || len(nodes) > len(p.aggrNode[big])) {
			big = i
		}
	}
	if big < 0 {
		return
	}
	p.SetAggrNode(p.neighbors[big], p.aggrNode[big][1:])
	if p.TableCurrent(d, classes) {
		t.Fatalf("peer %d: table still current after new node info", p.id)
	}
	ids = p.clusteringSpace()
	copied = materialize(d, ids)
	for ci, l := range classes {
		for _, k := range ks {
			checkHop(t, p, d, ids, copied, k, ci, l)
		}
	}
}

// scrambled returns another snapshot of d's hosts: every distance
// scaled by its own factor in [1, 2), so a table built over d would read
// the wrong distances, in the wrong order, in it.
func scrambled(d *Dist, rng *rand.Rand) *Dist {
	m := metric.FromFunc(d.m.N(), func(i, j int) float64 { return (1 + rng.Float64()) * d.m.Dist(i, j) })
	return &Dist{m: m, in: d.in}
}

// fullDist returns a snapshot holding every host of m.
func fullDist(m *metric.Matrix) *Dist {
	return &Dist{m: m, in: slices.Repeat([]bool{true}, m.N())}
}

// A converged network answers every local search from the tables: with
// the snapshot's membership gone, a scan would reject V_p and fail, yet
// every query from every host still gets its answer.
func TestConvergedNetworkAnswersFromTables(t *testing.T) {
	cfg := Config{NCut: DefaultNCut, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 120, 0.2, cfg, 4)
	type query struct {
		start, k int
		l        float64
	}
	want := make(map[query]Result)
	for _, h := range nw.Hosts() {
		for _, l := range cfg.Classes {
			for k := 2; k <= 12; k++ {
				res, err := nw.Query(h, k, l)
				if err != nil {
					t.Fatal(err)
				}
				want[query{h, k, l}] = res
			}
		}
	}
	nw.dist.in = nil
	found := 0
	for q, w := range want {
		got, err := nw.Query(q.start, q.k, q.l)
		if err != nil {
			t.Fatalf("query %+v scanned: %v", q, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("query %+v: %+v, want %+v", q, got, w)
		}
		if got.Found() {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no query found a cluster; the test exercises nothing")
	}
}

// A converged hub's hop reads its ladder table and allocates only the
// k-member answer: no copy of V_p, no row list, no scan.
func TestQueryHopAllocatesLinearInSpace(t *testing.T) {
	cfg := Config{NCut: DefaultNCut, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 190, 0.2, cfg, 1)
	var hub *Peer
	for _, h := range nw.Hosts() {
		if p := nw.peers[h]; hub == nil || len(p.clusteringSpace()) > len(hub.clusteringSpace()) {
			hub = p
		}
	}
	// The tightest class with a cluster of 2 or more keeps k well below
	// |V_p|, so a copy of V_p would break the bound.
	m := len(hub.clusteringSpace())
	ci := slices.IndexFunc(hub.selfCRT, func(size int) bool { return size >= 2 })
	k := hub.selfCRT[max(ci, 0)]
	if m < 64 || ci < 0 || 4*k > m {
		t.Fatalf("hub %d: space %d, max clusters %v; the guard needs a large space and a small findable cluster", hub.id, m, hub.selfCRT)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if hop, err := hub.QueryHop(nw.dist, k, ci, cfg.Classes[ci], -1); err != nil || hop.Members == nil {
			t.Fatalf("hub %d k=%d: members %v, err %v", hub.id, k, hop.Members, err)
		}
	}
	runtime.ReadMemStats(&after)
	perHop := (after.TotalAlloc - before.TotalAlloc) / calls
	// The answer is k ints; the slack covers size-class rounding.
	if bound := uint64(9*k + 64); perHop > bound {
		t.Errorf("hub %d: a hop over %d hosts allocates %d B, want at most %d (the %d-member answer)", hub.id, m, perHop, bound, k)
	}
}

// FuzzQueryHopMatchesMaterialized makes the same comparisons, current
// table and both stale states, over a small fuzzed tree metric, at one
// peer for one k and one class.
func FuzzQueryHopMatchesMaterialized(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(0), uint8(2), uint8(4))
	f.Add(int64(-5), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, nCutRaw, peerRaw, kRaw, classRaw uint8) {
		n := 2 + int(nRaw)%40
		cfg := Config{NCut: 1 + int(nCutRaw)%12, Classes: classSpread()}
		o := testutil.RandomTreeMetric(n, rand.New(rand.NewSource(seed)))
		tree, err := predtree.Build(o, 100, predtree.SearchFull, nil)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := NewNetwork(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Converge(0); err != nil {
			t.Fatal(err)
		}
		hosts := nw.Hosts()
		p := nw.peers[hosts[int(peerRaw)%len(hosts)]]
		ids := p.clusteringSpace()
		ci := int(classRaw) % len(cfg.Classes)
		k := 2 + int(kRaw)%15
		checkAgainstMaterialized(t, p, nw.dist, ids, materialize(nw.dist, ids), k, ci, cfg.Classes[ci])
		checkStaleHops(t, p, nw.dist, cfg.Classes, []int{k}, rand.New(rand.NewSource(seed)))
	})
}

// sparseTree returns a tree over hosts 9, 1 and 4 of a 12-host metric:
// host 7 joined and departed, and hosts 0, 2, 3, 5, 6 and 8 never joined.
func sparseTree(t *testing.T) *predtree.Tree {
	t.Helper()
	o := testutil.NoisyTreeMetric(12, 0.1, rand.New(rand.NewSource(5)))
	tree, err := predtree.Build(o, 100, predtree.SearchFull, []int{9, 1, 7, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Remove(7); err != nil {
		t.Fatal(err)
	}
	return tree
}

// A snapshot is host-indexed: row h is host h, entries toward an id the
// substrate never held or has lost are +Inf, and no lookup panics on an
// id a wire message could carry.
func TestDistSparseAndDepartedHosts(t *testing.T) {
	tree := sparseTree(t)
	want, hosts := tree.DistMatrix()
	for _, n := range []int{0, 10, 16} {
		d := NewDist(tree, n)
		if got := d.Matrix().N(); got != max(n, 10) {
			t.Fatalf("NewDist(tree, %d) is %d wide, want %d", n, got, max(n, 10))
		}
		for i, a := range hosts {
			for j, b := range hosts {
				if got := d.Between(a, b); got != want.Dist(i, j) || d.Matrix().Dist(a, b) != got {
					t.Errorf("width %d: Between(%d, %d) = %v, matrix %v, want %v", n, a, b, got, d.Matrix().Dist(a, b), want.Dist(i, j))
				}
			}
		}
		if err := d.checkRows(hosts); err != nil {
			t.Errorf("width %d: %v", n, err)
		}
		absent := []int{0, 7, 8}
		if d.Matrix().N() > 10 {
			absent = append(absent, d.Matrix().N()-1)
		}
		for _, h := range absent {
			for _, g := range hosts {
				if !math.IsInf(d.Matrix().Dist(h, g), 1) {
					t.Errorf("width %d: matrix entry (%d, %d) = %v, want +Inf", n, h, g, d.Matrix().Dist(h, g))
				}
			}
		}
		for _, h := range append(absent, -1, d.Matrix().N(), math.MaxInt) {
			if d.Has(h) {
				t.Errorf("width %d: Has(%d) = true", n, h)
			}
			if !math.IsInf(d.Between(h, 1), 1) || !math.IsInf(d.Between(1, h), 1) || !math.IsInf(d.Between(h, h), 1) {
				t.Errorf("width %d: Between with host %d is finite", n, h)
			}
			if err := d.checkRows([]int{1, h, 4}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("host %d ", h)) {
				t.Errorf("width %d: checkRows error = %v, want one naming host %d", n, err, h)
			}
		}
	}
}

// A network built over a snapshot shares it, and a snapshot that lacks
// one of the substrate's hosts is refused.
func TestNewNetworkOverSharesSnapshot(t *testing.T) {
	tree := sparseTree(t)
	cfg := Config{NCut: DefaultNCut, Classes: classSpread()}
	d := NewDist(tree, 12)
	nw, err := NewNetworkOver(tree, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.dist != d {
		t.Fatal("the network copied its snapshot")
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	if node, _, err := nw.FindNodeCentral([]int{1}, math.Inf(1)); err != nil || !d.Has(node) {
		t.Errorf("FindNodeCentral = %d, %v; want a host of the substrate", node, err)
	}
	if _, _, err := nw.FindNodeCentral([]int{1, 7}, math.Inf(1)); err == nil {
		t.Error("FindNodeCentral accepted a departed set member")
	}
	small, err := predtree.Build(testutil.NoisyTreeMetric(12, 0.1, rand.New(rand.NewSource(5))), 100, predtree.SearchFull, []int{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetworkOver(tree, NewDist(small, 12), cfg); err == nil || !strings.Contains(err.Error(), "host 4 ") {
		t.Errorf("a snapshot without host 4: error = %v", err)
	}
}
