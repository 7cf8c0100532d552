package overlay

import (
	"math"
	"math/rand"
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

func TestInsertSorted(t *testing.T) {
	got := insertSorted([]int{1, 3, 5}, 4)
	want := []int{1, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := insertSorted([]int{1, 3}, 3); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("duplicate insert: %v", got)
	}
	if got := insertSorted(nil, 2); !slices.Equal(got, []int{2}) {
		t.Errorf("empty insert: %v", got)
	}
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

// A host a peer names but the snapshot lacks (the async runtime swaps
// snapshots before it resets survivors) is an error naming the host,
// never a silent read of another host's row.
func TestLocalSearchRejectsHostMissingFromSnapshot(t *testing.T) {
	m := metric.FromFunc(3, func(i, j int) float64 { return 1 })
	d := &Dist{m: m, hosts: []int{0, 1, 2}, index: map[int]int{0: 0, 1: 1, 2: 2}}
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
	d := &Dist{m: m, hosts: make([]int, n), index: make(map[int]int, n)}
	for i := range d.hosts {
		d.hosts[i], d.index[i] = i, i
	}
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

// The local search reads the snapshot in place; its answers and the self
// CRT must equal Algorithm 1 over a materialized copy of the space, for
// every peer, every class and k = 2..16.
func TestQueryHopMatchesMaterializedSpace(t *testing.T) {
	cfg := Config{NCut: DefaultNCut, Classes: classSpread()}
	for _, n := range []int{64, 190} {
		for seed := int64(1); seed <= 3; seed++ {
			nw, _, _ := buildNetwork(t, n, 0.2, cfg, seed)
			for _, h := range nw.Hosts() {
				p := nw.peers[h]
				ids := p.clusteringSpace()
				copied := materialize(nw.dist, ids)
				for ci, l := range cfg.Classes {
					for k := 2; k <= 16; k++ {
						checkAgainstMaterialized(t, p, nw.dist, ids, copied, k, ci, l)
					}
				}
			}
		}
	}
}

// A hop that finds a cluster allocates in proportion to |V_p|: the local
// search reads the snapshot in place, so an |V_p|² copy cannot come back
// unnoticed. The hub of this network has a 129-host clustering space.
func TestQueryHopAllocatesLinearInSpace(t *testing.T) {
	cfg := Config{NCut: DefaultNCut, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 190, 0.2, cfg, 1)
	var hub *Peer
	for _, h := range nw.Hosts() {
		if p := nw.peers[h]; hub == nil || len(p.clusteringSpace()) > len(hub.clusteringSpace()) {
			hub = p
		}
	}
	m := len(hub.clusteringSpace())
	ci := len(cfg.Classes) - 1
	k := hub.selfCRT[ci]
	if m < 64 || k < 2 {
		t.Fatalf("hub %d: space %d, max cluster %d; the guard needs a large space and a findable cluster", hub.id, m, k)
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
	if bound := uint64(64*(m+k) + 1024); perHop > bound {
		t.Errorf("hub %d: a hop over %d hosts allocates %d B, want at most %d (linear in the space)", hub.id, m, perHop, bound)
	}
}

// FuzzQueryHopMatchesMaterialized makes the same comparison over a small
// fuzzed tree metric, at one peer for one k and one class.
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
		checkAgainstMaterialized(t, p, nw.dist, ids, materialize(nw.dist, ids), 2+int(kRaw)%15, ci, cfg.Classes[ci])
	})
}
