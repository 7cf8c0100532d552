package bwcluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
)

// sampleBandwidth builds an n-host bandwidth matrix as [][]float64 via the
// synthetic generator.
func sampleBandwidth(t *testing.T, n int, seed int64) [][]float64 {
	t.Helper()
	bw, err := dataset.Generate(dataset.HPConfig().WithN(n), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i != j {
				out[i][j] = bw.At(i, j)
			}
		}
	}
	return out
}

func TestDefaultCMatchesInternal(t *testing.T) {
	if DefaultC != metric.DefaultC {
		t.Fatalf("public DefaultC %v diverged from internal %v", DefaultC, metric.DefaultC)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := New([][]float64{{0}}); err == nil {
		t.Error("single host should fail")
	}
	if _, err := New([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := New([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Error("zero bandwidth should fail")
	}
	good := [][]float64{{0, 10}, {10, 0}}
	bad := []Option{
		WithConstant(0),
		WithNCut(0),
		WithBandwidthClasses(nil),
		WithBandwidthClasses([]float64{-1}),
	}
	for i, opt := range bad {
		if _, err := New(good, opt); err == nil {
			t.Errorf("option %d should fail", i)
		}
	}
}

// TestNewRejectsNonFinite checks that one NaN or infinite measurement,
// constant or class is an error naming what is wrong, with the default
// classes and with explicit ones: a NaN entry must not depend on the
// default classes' percentiles to be caught.
func TestNewRejectsNonFinite(t *testing.T) {
	explicit := WithBandwidthClasses([]float64{20, 40, 80})
	tests := []struct {
		name  string
		entry float64 // written at raw[3][5]; 0 keeps the sample's value
		opt   Option
		want  string
	}{
		{"NaN entry, default classes", math.NaN(), nil, "bandwidth(3,5)=NaN"},
		{"NaN entry, explicit classes", math.NaN(), explicit, "bandwidth(3,5)=NaN"},
		{"+Inf entry, default classes", math.Inf(1), nil, "bandwidth(3,5)=+Inf"},
		{"+Inf entry, explicit classes", math.Inf(1), explicit, "bandwidth(3,5)=+Inf"},
		{"-Inf entry, explicit classes", math.Inf(-1), explicit, "bandwidth(3,5)=-Inf"},
		{"NaN constant", 0, WithConstant(math.NaN()), "constant"},
		{"+Inf constant", 0, WithConstant(math.Inf(1)), "constant"},
		{"NaN class", 0, WithBandwidthClasses([]float64{20, math.NaN()}), "class NaN"},
		{"+Inf class", 0, WithBandwidthClasses([]float64{math.Inf(1)}), "class +Inf"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			raw := sampleBandwidth(t, 12, 3)
			if tt.entry != 0 {
				raw[3][5] = tt.entry
			}
			var opts []Option
			if tt.opt != nil {
				opts = append(opts, tt.opt)
			}
			sys, err := New(raw, opts...)
			if err == nil {
				bw, _ := sys.PredictBandwidth(3, 5)
				t.Fatalf("New succeeded (PredictBandwidth(3,5) = %v), want an error containing %q", bw, tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestBasicUsage(t *testing.T) {
	raw := sampleBandwidth(t, 40, 1)
	sys, err := New(raw, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Len() != 40 {
		t.Fatalf("Len = %d", sys.Len())
	}
	if sys.Constant() != DefaultC {
		t.Errorf("Constant = %v", sys.Constant())
	}
	if len(sys.Classes()) == 0 {
		t.Error("no default classes derived")
	}

	// Prediction is finite and positive for all pairs.
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			p, err := sys.PredictBandwidth(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if p <= 0 {
				t.Fatalf("predicted bandwidth (%d,%d) = %v", u, v, p)
			}
		}
	}

	// A loose centralized query must succeed and respect the constraint
	// on predicted bandwidth.
	classes := sys.Classes()
	b := classes[0]
	members, err := sys.FindCluster(4, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("FindCluster returned %v", members)
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			p, err := sys.PredictBandwidth(members[i], members[j])
			if err != nil {
				t.Fatal(err)
			}
			if p < b*(1-1e-9) {
				t.Fatalf("pair (%d,%d) predicted %v < %v", members[i], members[j], p, b)
			}
		}
	}

	// Decentralized query from every host.
	for start := 0; start < sys.Len(); start += 7 {
		res, err := sys.Query(start, 4, b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found() {
			t.Fatalf("decentralized query from %d failed", start)
		}
		if res.Class < b {
			t.Fatalf("snapped class %v below request %v", res.Class, b)
		}
		for i := 0; i < len(res.Members); i++ {
			for j := i + 1; j < len(res.Members); j++ {
				p, err := sys.PredictBandwidth(res.Members[i], res.Members[j])
				if err != nil {
					t.Fatal(err)
				}
				if p < res.Class*(1-1e-9) {
					t.Fatalf("pair predicted %v < class %v", p, res.Class)
				}
			}
		}
	}
}

// A NaN bandwidth is not a constraint: both query paths must reject it
// instead of answering with an empty cluster.
func TestNaNBandwidthRejected(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 12, 3), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if members, err := sys.FindCluster(3, math.NaN()); err == nil {
		t.Errorf("FindCluster(b=NaN) = %v, want error", members)
	}
	if res, err := sys.Query(0, 3, math.NaN()); err == nil {
		t.Errorf("Query(b=NaN) = %+v, want error", res)
	}
}

func TestQuerySnapsUp(t *testing.T) {
	raw := sampleBandwidth(t, 25, 2)
	sys, err := New(raw, WithBandwidthClasses([]float64{20, 40, 80}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(0, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() && res.Class < 40-1e-9 {
		t.Errorf("b=30 should snap up to class 40, got %v", res.Class)
	}
	// A request above every class cannot be served conservatively.
	if _, err := sys.Query(0, 2, 500); err == nil {
		t.Error("constraint above all classes should fail")
	}
}

func TestHostValidation(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PredictBandwidth(0, 99); err == nil {
		t.Error("out-of-range host should fail")
	}
	if _, err := sys.PredictBandwidth(3, 3); err == nil {
		t.Error("self bandwidth should fail")
	}
	if _, err := sys.MeasuredBandwidth(-1, 0); err == nil {
		t.Error("negative host should fail")
	}
	if _, err := sys.Query(99, 3, 10); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := sys.Neighbors(99); err == nil {
		t.Error("unknown host should fail")
	}
	if _, err := sys.DistanceLabel(-5); err == nil {
		t.Error("unknown host should fail")
	}
	if _, err := sys.FindCluster(3, 0); err == nil {
		t.Error("b=0 should fail")
	}
	if _, err := sys.MaxClusterSize(-1); err == nil {
		t.Error("negative constraint should fail")
	}
}

func TestAsymmetricInputAveraged(t *testing.T) {
	raw := [][]float64{
		{0, 10, 30},
		{30, 0, 50},
		{50, 70, 0},
	}
	sys, err := New(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.MeasuredBandwidth(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("MeasuredBandwidth(0,1) = %v, want 20 (averaged)", got)
	}
}

func TestDistanceLabelAndNeighbors(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 15, 4))
	if err != nil {
		t.Fatal(err)
	}
	label, err := sys.DistanceLabel(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(label, "->") && !strings.Contains(label, "3") {
		t.Errorf("unexpected label %q", label)
	}
	nb, err := sys.Neighbors(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) == 0 {
		t.Error("host 3 has no overlay neighbors")
	}
}

func TestMaxClusterSizeMonotone(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 30, 5))
	if err != nil {
		t.Fatal(err)
	}
	prev := sys.Len() + 1
	for _, b := range []float64{5, 20, 80, 320} {
		size, err := sys.MaxClusterSize(b)
		if err != nil {
			t.Fatal(err)
		}
		if size > prev {
			t.Errorf("MaxClusterSize not monotone: %d after %d at b=%v", size, prev, b)
		}
		prev = size
	}
}

func TestCentralizedConstructionOption(t *testing.T) {
	raw := sampleBandwidth(t, 20, 6)
	a, err := New(raw, WithCentralizedConstruction(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	bSys, err := New(raw, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != bSys.Len() {
		t.Error("construction modes disagree on size")
	}
	// Both must answer a loose query.
	for _, sys := range []*System{a, bSys} {
		cl := sys.Classes()
		members, err := sys.FindCluster(3, cl[0])
		if err != nil {
			t.Fatal(err)
		}
		if members == nil {
			t.Error("loose query failed")
		}
	}
}

func TestTightestCluster(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 35, 9), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	members, worst, err := sys.TightestCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 5 {
		t.Fatalf("members = %v", members)
	}
	// The reported worst bandwidth is the minimum predicted bandwidth
	// inside the returned set (within the tree-metric identity).
	actual := 1e18
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			p, err := sys.PredictBandwidth(members[i], members[j])
			if err != nil {
				t.Fatal(err)
			}
			if p < actual {
				actual = p
			}
		}
	}
	if actual < worst*(1-1e-9) {
		t.Errorf("achieved worst %v below reported %v", actual, worst)
	}
	// No other FindCluster at a higher constraint can exist.
	above, err := sys.FindCluster(5, worst*1.02)
	if err != nil {
		t.Fatal(err)
	}
	if above != nil {
		// Permissible only if that cluster's real worst predicted pair is
		// still >= worst (tree-metric identity may be loose on noise).
		w := 1e18
		for i := 0; i < len(above); i++ {
			for j := i + 1; j < len(above); j++ {
				p, _ := sys.PredictBandwidth(above[i], above[j])
				if p < w {
					w = p
				}
			}
		}
		if w < worst*(1-0.05) {
			t.Errorf("found looser cluster (worst %v) above the optimum %v", w, worst)
		}
	}
	if _, _, err := sys.TightestCluster(1); err == nil {
		t.Error("k=1 should fail")
	}
	big, _, err := sys.TightestCluster(sys.Len() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if big != nil {
		t.Error("k > n should return nil")
	}
}

// TightestCluster reads the System's index: a call allocates its member
// slice and nothing else.
func TestTightestClusterAllocatesOnlyMembers(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 35, 9), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if members, _, err := sys.TightestCluster(5); err != nil || len(members) != 5 {
			t.Fatalf("TightestCluster(5) = %v, %v", members, err)
		}
	})
	if allocs != 1 {
		t.Errorf("TightestCluster allocates %v times per call, want 1 (the member slice)", allocs)
	}
}

func TestFindNodeForSet(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 40, 8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	classes := sys.Classes()
	b := classes[0]
	members, err := sys.FindCluster(5, b)
	if err != nil || members == nil {
		t.Fatalf("setup cluster: %v %v", members, err)
	}
	set := members[:3]
	res, err := sys.FindNodeForSet(set, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("no node found for a loose constraint")
	}
	for _, m := range set {
		if res.Node == m {
			t.Fatalf("returned node %d is in the input set", res.Node)
		}
		p, err := sys.PredictBandwidth(res.Node, m)
		if err != nil {
			t.Fatal(err)
		}
		if p < b*(1-1e-9) {
			t.Fatalf("node %d predicted %v Mbps to member %d (< %v)", res.Node, p, m, b)
		}
	}
	if res.WorstBandwidth < b*(1-1e-9) {
		t.Errorf("WorstBandwidth %v below constraint %v", res.WorstBandwidth, b)
	}

	// Decentralized variant from several starts.
	for start := 0; start < sys.Len(); start += 9 {
		nres, err := sys.QueryNode(start, set, b)
		if err != nil {
			t.Fatal(err)
		}
		if !nres.Found() {
			continue // heuristic may miss with small n_cut
		}
		for _, m := range set {
			p, _ := sys.PredictBandwidth(nres.Node, m)
			if p < b*(1-1e-9) {
				t.Fatalf("decentralized node %d predicted %v to %d (< %v)", nres.Node, p, m, b)
			}
		}
	}

	// Validation paths.
	if _, err := sys.FindNodeForSet([]int{999}, b); err == nil {
		t.Error("out-of-range member should fail")
	}
	if _, err := sys.FindNodeForSet(set, 0); err == nil {
		t.Error("b=0 should fail")
	}
	if _, err := sys.QueryNode(999, set, b); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := sys.QueryNode(0, set, -1); err == nil {
		t.Error("negative constraint should fail")
	}
	// Impossible constraint yields not-found, not an error.
	impossible, err := sys.FindNodeForSet(set, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if impossible.Found() {
		t.Error("1e9 Mbps constraint should find nothing")
	}
}

func TestRoutingTable(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 25, 15), WithBandwidthClasses([]float64{15, 30, 60}))
	if err != nil {
		t.Fatal(err)
	}
	self, entries, err := sys.RoutingTable(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 3 {
		t.Fatalf("self CRT has %d classes, want 3", len(self))
	}
	// Aligned with ascending bandwidth classes: tighter constraints can
	// only shrink the max cluster size.
	for i := 1; i < len(self); i++ {
		if self[i] > self[i-1] {
			t.Fatalf("self CRT not monotone non-increasing in bandwidth: %v", self)
		}
	}
	nb, err := sys.Neighbors(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(nb) {
		t.Fatalf("entries = %d, neighbors = %d", len(entries), len(nb))
	}
	for _, e := range entries {
		if len(e.MaxSizes) != 3 {
			t.Fatalf("entry %+v has %d classes", e, len(e.MaxSizes))
		}
		for i := 1; i < len(e.MaxSizes); i++ {
			if e.MaxSizes[i] > e.MaxSizes[i-1] {
				t.Fatalf("CRT via %d not monotone: %v", e.Neighbor, e.MaxSizes)
			}
		}
	}
	if _, _, err := sys.RoutingTable(99); err == nil {
		t.Error("unknown host should fail")
	}
}

func TestSystemStats(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 25, 14), WithTrees(2))
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Hosts != 25 || st.Trees != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Measurements <= 0 {
		t.Error("no measurements recorded")
	}
	// Construction must measure fewer pairs than full n-to-n per tree.
	if full := 25 * 24 / 2 * 2 /* both directions */ * 2; /* trees */ st.Measurements >= full*3 {
		t.Errorf("measurements %d suspiciously high (full n-to-n x trees = %d)", st.Measurements, full)
	}
	if st.GossipRounds <= 0 || st.GossipMessages <= 0 {
		t.Errorf("gossip stats empty: %+v", st)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	raw := sampleBandwidth(t, 20, 7)
	a, err := New(raw, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(raw, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			pa, _ := a.PredictBandwidth(u, v)
			pb, _ := b.PredictBandwidth(u, v)
			if pa != pb {
				t.Fatalf("non-deterministic prediction at (%d,%d)", u, v)
			}
		}
	}
}
