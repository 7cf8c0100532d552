package overlay

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
	"bwcluster/internal/predtree"
	"bwcluster/internal/testutil"
)

func buildNetwork(t *testing.T, n int, noise float64, cfg Config, seed int64) (*Network, *predtree.Tree, *metric.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	o := testutil.NoisyTreeMetric(n, noise, rng)
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
	return nw, tree, o
}

func classSpread() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := testutil.RandomTreeMetric(4, rng)
	tree, err := predtree.Build(o, 100, predtree.SearchFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NCut: 0, Classes: []float64{1}},
		{NCut: 5, Classes: nil},
		{NCut: 5, Classes: []float64{0, 1}},
		{NCut: 5, Classes: []float64{2, 1}},
		{NCut: 5, Classes: []float64{1, 1}},
	}
	for i, cfg := range bad {
		if _, err := NewNetwork(tree, cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if _, err := NewNetwork(nil, Config{NCut: 5, Classes: []float64{1}}); err == nil {
		t.Error("nil tree should fail")
	}
}

func TestClassesFromBandwidths(t *testing.T) {
	classes, err := ClassesFromBandwidths([]float64{50, 25, 100, 50}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4} // 100/100, 100/50, 100/25 — ascending, deduped
	if len(classes) != len(want) {
		t.Fatalf("classes = %v, want %v", classes, want)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("classes = %v, want %v", classes, want)
		}
	}
	if _, err := ClassesFromBandwidths([]float64{0}, 100); err == nil {
		t.Error("b=0 should fail")
	}
}

func TestClassForSnapping(t *testing.T) {
	nw, _, _ := buildNetwork(t, 10, 0, Config{NCut: 5, Classes: []float64{2, 4, 8}}, 2)
	tests := []struct {
		l       float64
		want    float64
		wantErr bool
	}{
		{l: 2, want: 2},
		{l: 3, want: 2},
		{l: 4, want: 4},
		{l: 100, want: 8},
		{l: 1.5, wantErr: true},
	}
	for _, tt := range tests {
		got, _, err := nw.cfg.ClassFor(tt.l)
		if tt.wantErr {
			if !errors.Is(err, ErrNoClass) {
				t.Errorf("ClassFor(%v) err = %v, want ErrNoClass", tt.l, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ClassFor(%v): %v", tt.l, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ClassFor(%v) = %v, want %v", tt.l, got, tt.want)
		}
	}
	// NaN compares false with every class, which once snapped it past
	// all of them to the largest.
	if got, _, err := nw.cfg.ClassFor(math.NaN()); err == nil {
		t.Errorf("ClassFor(NaN) = %v, want an error", got)
	}
}

// reachableVia returns the hosts reachable from x through neighbor m on
// the anchor tree (excluding x), computed independently of the protocol.
func reachableVia(tree *predtree.Tree, x, m int) []int {
	seen := map[int]bool{x: true, m: true}
	queue := []int{m}
	out := []int{m}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range tree.AnchorNeighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
				out = append(out, nb)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Theorem 3.2: converged aggrNode[x][m] holds the n_cut closest reachable
// hosts. Distances are compared as sorted multisets so distance ties pass.
func TestTheorem32NodeInfo(t *testing.T) {
	for _, noise := range []float64{0, 0.3} {
		cfg := Config{NCut: 4, Classes: classSpread()}
		nw, tree, _ := buildNetwork(t, 24, noise, cfg, 3)
		for _, x := range nw.Hosts() {
			for _, m := range nw.Neighbors(x) {
				reach := reachableVia(tree, x, m)
				wantDists := make([]float64, 0, len(reach))
				for _, u := range reach {
					wantDists = append(wantDists, nw.dist.Between(x, u))
				}
				sort.Float64s(wantDists)
				if len(wantDists) > cfg.NCut {
					wantDists = wantDists[:cfg.NCut]
				}
				got := nw.AggrNode(x, m)
				gotDists := make([]float64, 0, len(got))
				for _, u := range got {
					gotDists = append(gotDists, nw.dist.Between(x, u))
				}
				sort.Float64s(gotDists)
				if len(gotDists) != len(wantDists) {
					t.Fatalf("noise=%v x=%d m=%d: got %d nodes, want %d", noise, x, m, len(gotDists), len(wantDists))
				}
				for i := range wantDists {
					if math.Abs(gotDists[i]-wantDists[i]) > 1e-9 {
						t.Fatalf("noise=%v x=%d m=%d: dist[%d]=%v, want %v (got nodes %v)",
							noise, x, m, i, gotDists[i], wantDists[i], got)
					}
				}
				// Every propagated node must actually be reachable via m.
				reachSet := map[int]bool{}
				for _, u := range reach {
					reachSet[u] = true
				}
				for _, u := range got {
					if !reachSet[u] {
						t.Fatalf("x=%d m=%d: aggrNode contains unreachable %d", x, m, u)
					}
				}
			}
		}
	}
}

// Theorem 3.3: converged aggrCRT[x][m][l] equals the maximum over hosts w
// reachable via m of the max cluster size in w's clustering space.
func TestTheorem33CRT(t *testing.T) {
	cfg := Config{NCut: 4, Classes: classSpread()}
	nw, tree, _ := buildNetwork(t, 20, 0.2, cfg, 4)
	for _, x := range nw.Hosts() {
		for _, m := range nw.Neighbors(x) {
			got := nw.CRT(x, m)
			if len(got) != len(cfg.Classes) {
				t.Fatalf("x=%d m=%d: CRT has %d classes, want %d", x, m, len(got), len(cfg.Classes))
			}
			for ci, l := range cfg.Classes {
				want := 0
				for _, w := range reachableVia(tree, x, m) {
					hosts, err := nw.ClusteringSpace(w)
					if err != nil {
						t.Fatal(err)
					}
					size, _ := cluster.MaxClusterSize(materialize(nw.dist, hosts), l)
					if size > want {
						want = size
					}
				}
				if got[ci] != want {
					t.Fatalf("x=%d m=%d class=%v: CRT=%d, want %d", x, m, l, got[ci], want)
				}
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	nw, _, _ := buildNetwork(t, 10, 0, Config{NCut: 5, Classes: classSpread()}, 5)
	if _, err := nw.Query(999, 3, 8); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := nw.Query(0, 1, 8); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := nw.Query(0, 3, 0.01); !errors.Is(err, ErrNoClass) {
		t.Errorf("too-tight constraint err = %v, want ErrNoClass", err)
	}
}

// Any returned cluster must satisfy the snapped constraint on the
// predicted metric, from any start host.
func TestQueryResultsSatisfyConstraint(t *testing.T) {
	cfg := Config{NCut: 5, Classes: classSpread()}
	nw, tree, _ := buildNetwork(t, 30, 0.2, cfg, 6)
	_ = tree
	for _, start := range nw.Hosts() {
		for _, l := range []float64{4, 16, 64} {
			res, err := nw.Query(start, 4, l)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found() {
				continue
			}
			if len(res.Cluster) != 4 {
				t.Fatalf("cluster size %d, want 4", len(res.Cluster))
			}
			for i := 0; i < len(res.Cluster); i++ {
				for j := i + 1; j < len(res.Cluster); j++ {
					d := nw.dist.Between(res.Cluster[i], res.Cluster[j])
					if d > res.Class*(1+1e-9) {
						t.Fatalf("start=%d l=%v: pair (%d,%d) at %v > class %v",
							start, l, res.Cluster[i], res.Cluster[j], d, res.Class)
					}
				}
			}
		}
	}
}

// With n_cut >= n every peer's clustering space is the whole system, so
// the decentralized answer matches the centralized one for every query.
func TestUnlimitedNCutMatchesCentralized(t *testing.T) {
	n := 18
	cfg := Config{NCut: n, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, n, 0, cfg, 7)
	pred, hosts := predictedSpace(t, nw)
	for _, l := range cfg.Classes {
		for k := 2; k <= n; k += 3 {
			central, err := cluster.FindCluster(pred, k, l)
			if err != nil {
				t.Fatal(err)
			}
			res, err := nw.Query(hosts[0], k, l)
			if err != nil {
				t.Fatal(err)
			}
			if (central != nil) != res.Found() {
				t.Fatalf("k=%d l=%v: centralized=%v decentralized found=%v",
					k, l, central, res.Found())
			}
		}
	}
}

// predictedSpace rebuilds the full predicted metric for comparison.
func predictedSpace(t *testing.T, nw *Network) (*metric.Matrix, []int) {
	t.Helper()
	hosts := nw.Hosts()
	return materialize(nw.dist, hosts), hosts
}

// materialize copies the predicted distances over hosts into a matrix
// whose row i is hosts[i], independently of the view local searches read.
func materialize(d *Dist, hosts []int) *metric.Matrix {
	return metric.FromFunc(len(hosts), func(i, j int) float64 {
		return d.Between(hosts[i], hosts[j])
	})
}

// Decentralized responsiveness never exceeds centralized: if the
// decentralized query finds a cluster, the centralized algorithm on the
// same predicted metric must find one too.
func TestDecentralizedNeverBeatsCentralized(t *testing.T) {
	cfg := Config{NCut: 3, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 25, 0.2, cfg, 8)
	pred, hosts := predictedSpace(t, nw)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(10)
		l := cfg.Classes[rng.Intn(len(cfg.Classes))]
		start := hosts[rng.Intn(len(hosts))]
		res, err := nw.Query(start, k, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found() {
			central, err := cluster.FindCluster(pred, k, l)
			if err != nil {
				t.Fatal(err)
			}
			if central == nil {
				t.Fatalf("decentralized found (k=%d l=%v) but centralized did not", k, l)
			}
		}
	}
}

func TestQueryHopsBoundedAndPathTraced(t *testing.T) {
	cfg := Config{NCut: 2, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 40, 0.3, cfg, 10)
	for _, start := range nw.Hosts() {
		res, err := nw.Query(start, 3, 32)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops > len(nw.Hosts()) {
			t.Fatalf("hops %d exceeds host count", res.Hops)
		}
		if len(res.Path) != res.Hops+1 {
			t.Fatalf("path %v has %d entries, want hops+1 = %d", res.Path, len(res.Path), res.Hops+1)
		}
		if res.Path[0] != start {
			t.Fatalf("path starts at %d, want %d", res.Path[0], start)
		}
		if res.Path[len(res.Path)-1] != res.Answered {
			t.Fatalf("path ends at %d, answered by %d", res.Path[len(res.Path)-1], res.Answered)
		}
		// Consecutive path entries are overlay neighbors and the walk
		// never revisits a host (the overlay is a tree).
		seen := map[int]bool{}
		for i, h := range res.Path {
			if seen[h] {
				t.Fatalf("path %v revisits %d", res.Path, h)
			}
			seen[h] = true
			if i == 0 {
				continue
			}
			isNb := false
			for _, nb := range nw.Neighbors(res.Path[i-1]) {
				if nb == h {
					isNb = true
					break
				}
			}
			if !isNb {
				t.Fatalf("path step %d -> %d is not an overlay edge", res.Path[i-1], h)
			}
		}
	}
}

func TestRefreshPicksUpNewHosts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := testutil.RandomTreeMetric(12, rng)
	tree, err := predtree.Build(o, 100, predtree.SearchFull, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NCut: 5, Classes: classSpread()}
	nw, err := NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	if len(nw.Hosts()) != 8 {
		t.Fatalf("hosts = %d, want 8", len(nw.Hosts()))
	}
	for _, h := range []int{8, 9, 10, 11} {
		if err := tree.Add(h, o); err != nil {
			t.Fatal(err)
		}
	}
	nw.Resync()
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	if len(nw.Hosts()) != 12 {
		t.Fatalf("hosts after refresh = %d, want 12", len(nw.Hosts()))
	}
	// The refreshed network still satisfies Theorem 3.2.
	for _, x := range nw.Hosts() {
		for _, m := range nw.Neighbors(x) {
			reach := reachableVia(tree, x, m)
			got := nw.AggrNode(x, m)
			want := len(reach)
			if want > cfg.NCut {
				want = cfg.NCut
			}
			if len(got) != want {
				t.Fatalf("x=%d m=%d: aggrNode size %d, want %d", x, m, len(got), want)
			}
		}
	}
}

func TestAccessorsUnknownHost(t *testing.T) {
	nw, _, _ := buildNetwork(t, 6, 0, Config{NCut: 3, Classes: classSpread()}, 12)
	if nw.AggrNode(99, 0) != nil {
		t.Error("AggrNode for unknown host should be nil")
	}
	if nw.CRT(99, 0) != nil {
		t.Error("CRT for unknown host should be nil")
	}
	if nw.SelfCRT(99) != nil {
		t.Error("SelfCRT for unknown host should be nil")
	}
	if nw.Neighbors(99) != nil {
		t.Error("Neighbors for unknown host should be nil")
	}
	if _, err := nw.ClusteringSpace(99); err == nil {
		t.Error("ClusteringSpace for unknown host should fail")
	}
}

func TestConvergeIsIdempotent(t *testing.T) {
	nw, _, _ := buildNetwork(t, 15, 0.2, Config{NCut: 4, Classes: classSpread()}, 13)
	before := nw.Rounds()
	extra, err := nw.Converge(0)
	if err != nil {
		t.Fatal(err)
	}
	// A converged network changes nothing: one probe round per phase.
	if extra > 2 {
		t.Errorf("converged network ran %d extra rounds", extra)
	}
	if nw.Rounds() <= 0 || nw.Rounds() < before {
		t.Errorf("round counter broken: %d", nw.Rounds())
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := Config{NCut: 4, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 20, 0.2, cfg, 15)
	st := nw.Stats()
	if st.NodeInfoMessages <= 0 || st.CRTMessages <= 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.Messages() != st.NodeInfoMessages+st.CRTMessages {
		t.Errorf("Messages() inconsistent: %+v", st)
	}
	// Each Algorithm 2 message carries at most n_cut records.
	if st.NodeInfoRecords > st.NodeInfoMessages*cfg.NCut {
		t.Errorf("node records %d exceed messages x n_cut %d",
			st.NodeInfoRecords, st.NodeInfoMessages*cfg.NCut)
	}
	// Each Algorithm 3 message carries exactly |L| entries.
	if st.CRTRecords != st.CRTMessages*len(cfg.Classes) {
		t.Errorf("CRT records %d != messages x classes %d",
			st.CRTRecords, st.CRTMessages*len(cfg.Classes))
	}
	// Per round, messages equal twice the edge count (both directions).
	edges := 0
	for _, h := range nw.Hosts() {
		edges += len(nw.Neighbors(h))
	}
	if st.Messages()%edges != 0 {
		t.Errorf("messages %d not a multiple of directed edges %d", st.Messages(), edges)
	}
}

func TestClassesCopy(t *testing.T) {
	nw, _, _ := buildNetwork(t, 6, 0, Config{NCut: 3, Classes: classSpread()}, 14)
	cl := nw.Classes()
	cl[0] = 999
	if nw.Classes()[0] == 999 {
		t.Error("Classes aliases internal state")
	}
	h := nw.Hosts()
	h[0] = 999
	if nw.Hosts()[0] == 999 {
		t.Error("Hosts aliases internal state")
	}
}

// An untraced query answered at its start host allocates its Path and
// its members and nothing else: no attribute of the nil span is boxed.
func TestUntracedQueryAllocatesOnlyItsAnswer(t *testing.T) {
	n := 16
	nw, _, _ := buildNetwork(t, n, 0.2, Config{NCut: n, Classes: classSpread()}, 32)
	start, l := nw.Hosts()[0], 64.0
	res, err := nw.Query(start, 2, l)
	if err != nil || res.Cluster == nil || res.Hops != 0 {
		t.Fatalf("Query(%d, 2, %v) = %+v, %v; want an answer at the start host", start, l, res, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := nw.Query(start, 2, l); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("an untraced query allocates %v times, want 2 (its Path and its members)", allocs)
	}
}
