package metric

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomTreeMetric builds a random edge-weighted tree over n leaves (with
// n-2 extra internal nodes on average) and returns the induced n-by-n leaf
// distance matrix. By Buneman's theorem the result is an exact tree metric.
func randomTreeMetric(n int, rng *rand.Rand) *Matrix {
	// Build a random tree over 2n-1 vertices; the first n are leaves.
	total := 2*n - 1
	if total < 1 {
		total = 1
	}
	parent := make([]int, total)
	weight := make([]float64, total)
	parent[0] = -1
	for v := 1; v < total; v++ {
		parent[v] = rng.Intn(v)
		weight[v] = 0.5 + rng.Float64()*10
	}
	// Distance between two vertices via root paths.
	depth := make([]float64, total)
	for v := 1; v < total; v++ {
		depth[v] = depth[parent[v]] + weight[v]
	}
	anc := func(v int) []int {
		var path []int
		for v != -1 {
			path = append(path, v)
			v = parent[v]
		}
		return path
	}
	dist := func(a, b int) float64 {
		pa, pb := anc(a), anc(b)
		onA := make(map[int]bool, len(pa))
		for _, v := range pa {
			onA[v] = true
		}
		lca := 0
		for _, v := range pb {
			if onA[v] {
				lca = v
				break
			}
		}
		return depth[a] + depth[b] - 2*depth[lca]
	}
	return FromFunc(n, func(i, j int) float64 { return dist(i, j) })
}

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Set(2, 1, 7)
	if m.Dist(0, 1) != 5 || m.Dist(1, 0) != 5 {
		t.Errorf("symmetry broken: %v %v", m.Dist(0, 1), m.Dist(1, 0))
	}
	if m.Dist(1, 2) != 7 || m.At(2, 1) != 7 {
		t.Errorf("got %v %v, want 7 7", m.Dist(1, 2), m.At(2, 1))
	}
	m.Set(1, 1, 99) // diagonal writes are ignored
	if m.Dist(1, 1) != 0 {
		t.Errorf("diagonal = %v, want 0", m.Dist(1, 1))
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 3)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.Dist(0, 1) != 3 {
		t.Errorf("clone aliases original: %v", m.Dist(0, 1))
	}
}

func TestSubmatrix(t *testing.T) {
	m := FromFunc(4, func(i, j int) float64 { return float64(10*i + j) })
	sub, err := m.Submatrix([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 2 {
		t.Fatalf("sub.N() = %d, want 2", sub.N())
	}
	if sub.Dist(0, 1) != m.Dist(3, 1) {
		t.Errorf("sub(0,1) = %v, want %v", sub.Dist(0, 1), m.Dist(3, 1))
	}
}

func TestSubmatrixErrors(t *testing.T) {
	m := NewMatrix(3)
	if _, err := m.Submatrix([]int{0, 3}); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := m.Submatrix([]int{1, 1}); err == nil {
		t.Error("duplicate index should fail")
	}
	if _, err := m.Submatrix([]int{-1}); err == nil {
		t.Error("negative index should fail")
	}
}

func TestValues(t *testing.T) {
	m := FromFunc(3, func(i, j int) float64 { return float64(i + j) })
	vals := m.Values()
	if len(vals) != 3 {
		t.Fatalf("got %d values, want 3", len(vals))
	}
	want := []float64{1, 2, 3} // pairs (0,1),(0,2),(1,2)
	for i, v := range want {
		if vals[i] != v {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], v)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	asym := [][]float64{
		{0, 10, 20},
		{30, 0, 40},
		{60, 80, 0},
	}
	m, err := Symmetrize(asym)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist(0, 1) != 20 || m.Dist(0, 2) != 40 || m.Dist(1, 2) != 60 {
		t.Errorf("symmetrized = %v %v %v", m.Dist(0, 1), m.Dist(0, 2), m.Dist(1, 2))
	}
}

func TestSymmetrizeRagged(t *testing.T) {
	if _, err := Symmetrize([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged input should fail")
	}
}

func TestRationalTransform(t *testing.T) {
	bw := NewMatrix(2)
	bw.Set(0, 1, 50)
	d, err := DistanceFromBandwidth(bw, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dist(0, 1) != 2 {
		t.Errorf("d = %v, want 2", d.Dist(0, 1))
	}
	back, err := BandwidthFromDistance(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.Dist(0, 1)-50) > 1e-12 {
		t.Errorf("round trip = %v, want 50", back.Dist(0, 1))
	}
}

func TestRationalTransformErrors(t *testing.T) {
	bw := NewMatrix(2)
	bw.Set(0, 1, 50)
	if _, err := DistanceFromBandwidth(bw, 0); err == nil {
		t.Error("c=0 should fail")
	}
	zero := NewMatrix(2) // bandwidth 0 between the pair
	if _, err := DistanceFromBandwidth(zero, 100); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

// TestRationalTransformRejectsNonFinite checks that a NaN, infinite or
// non-positive entry (or constant) is an error naming the offending
// pair, never a matrix with a NaN or zero distance in it.
func TestRationalTransformRejectsNonFinite(t *testing.T) {
	tests := []struct {
		name string
		v    float64
		c    float64
		want string // substring of the error; "" means success
	}{
		{"finite", 50, 100, ""},
		{"NaN entry", math.NaN(), 100, "bandwidth(1,2)=NaN"},
		{"+Inf entry", math.Inf(1), 100, "bandwidth(1,2)=+Inf"},
		{"-Inf entry", math.Inf(-1), 100, "bandwidth(1,2)=-Inf"},
		{"zero entry", 0, 100, "bandwidth(1,2)=0"},
		{"negative entry", -3, 100, "bandwidth(1,2)=-3"},
		{"distance overflows", 1e-320, 100, "bandwidth(1,2)=1e-320"},
		{"NaN constant", 50, math.NaN(), "constant"},
		{"+Inf constant", 50, math.Inf(1), "constant"},
		{"negative constant", 50, -1, "constant"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bw := FromFunc(3, func(i, j int) float64 { return 10 })
			bw.Set(1, 2, tt.v)
			d, err := DistanceFromBandwidth(bw, tt.c)
			if tt.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if got := d.Dist(1, 2); got != tt.c/tt.v {
					t.Errorf("d(1,2) = %v, want %v", got, tt.c/tt.v)
				}
				return
			}
			if err == nil {
				t.Fatalf("want an error containing %q, got matrix with d(1,2)=%v", tt.want, d.Dist(1, 2))
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestRowAliasesMatrix(t *testing.T) {
	m := FromFunc(4, func(i, j int) float64 { return float64(10*i + j) })
	for i := 0; i < m.N(); i++ {
		row := m.Row(i)
		if len(row) != m.N() || cap(row) != m.N() {
			t.Fatalf("Row(%d) len/cap = %d/%d, want %d", i, len(row), cap(row), m.N())
		}
		for j, v := range row {
			if v != m.Dist(i, j) || v != m.Dist(j, i) {
				t.Errorf("Row(%d)[%d] = %v, want Dist %v and column %v", i, j, v, m.Dist(i, j), m.Dist(j, i))
			}
		}
	}
	m.Set(1, 2, 99)
	if m.Row(1)[2] != 99 || m.Row(2)[1] != 99 {
		t.Error("Row does not alias the matrix data")
	}
}

func TestDistanceForBandwidthConstraint(t *testing.T) {
	l, err := DistanceForBandwidthConstraint(25, 100)
	if err != nil {
		t.Fatal(err)
	}
	if l != 4 {
		t.Errorf("l = %v, want 4", l)
	}
	if _, err := DistanceForBandwidthConstraint(0, 100); err == nil {
		t.Error("b=0 should fail")
	}
	if _, err := DistanceForBandwidthConstraint(10, -1); err == nil {
		t.Error("c<0 should fail")
	}
	if l, err := DistanceForBandwidthConstraint(math.NaN(), 100); err == nil {
		t.Errorf("b=NaN should fail, got l=%v", l)
	}
}

// Property: the rational transform round-trips for random positive
// bandwidth matrices.
func TestRationalTransformRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		bw := FromFunc(n, func(i, j int) float64 { return 1 + rng.Float64()*500 })
		c := 1 + rng.Float64()*1000
		d, err := DistanceFromBandwidth(bw, c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := BandwidthFromDistance(d, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(back.Dist(i, j)-bw.Dist(i, j)) > 1e-9*bw.Dist(i, j) {
					t.Fatalf("round trip mismatch at (%d,%d): %v vs %v", i, j, back.Dist(i, j), bw.Dist(i, j))
				}
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	m := FromFunc(4, func(i, j int) float64 { return float64(i + j) })
	if d := Diameter(m, []int{0, 1, 2, 3}); d != 5 {
		t.Errorf("diameter = %v, want 5", d)
	}
	if d := Diameter(m, []int{2}); d != 0 {
		t.Errorf("singleton diameter = %v, want 0", d)
	}
	if d := Diameter(m, nil); d != 0 {
		t.Errorf("empty diameter = %v, want 0", d)
	}
}

func TestCheckMetricAcceptsTreeMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		m := randomTreeMetric(4+rng.Intn(8), rng)
		if err := CheckMetric(m, 1e-9); err != nil {
			t.Fatalf("tree metric rejected: %v", err)
		}
	}
}

func TestCheckMetricRejectsViolations(t *testing.T) {
	bad := NewMatrix(3)
	bad.Set(0, 1, 1)
	bad.Set(1, 2, 1)
	bad.Set(0, 2, 10) // violates triangle
	err := CheckMetric(bad, 1e-9)
	if !errors.Is(err, ErrNotMetric) {
		t.Errorf("err = %v, want ErrNotMetric", err)
	}

	neg := NewMatrix(2)
	neg.Set(0, 1, -1)
	if err := CheckMetric(neg, 0); !errors.Is(err, ErrNotMetric) {
		t.Errorf("negative distance: err = %v, want ErrNotMetric", err)
	}
}

// Property: every quartet of an exact tree metric has epsilon 0, so both
// the sampled and exact averages are 0.
func TestTreeMetricEpsilonZeroProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		m := randomTreeMetric(5+rng.Intn(6), rng)
		if eps := AvgEpsilonExact(m); eps > 1e-9 {
			t.Fatalf("exact tree metric has eps = %v", eps)
		}
		eps, err := AvgEpsilon(m, 200, rng)
		if err != nil {
			t.Fatal(err)
		}
		if eps > 1e-9 {
			t.Fatalf("sampled eps = %v on tree metric", eps)
		}
	}
}

// Property: perturbing a tree metric increases epsilon.
func TestEpsilonGrowsWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomTreeMetric(12, rng)
	noisy := base.Clone()
	for i := 0; i < noisy.N(); i++ {
		for j := i + 1; j < noisy.N(); j++ {
			noisy.Set(i, j, noisy.Dist(i, j)*(1+rng.Float64()*0.8))
		}
	}
	e0 := AvgEpsilonExact(base)
	e1 := AvgEpsilonExact(noisy)
	if e1 <= e0 {
		t.Errorf("noise did not raise epsilon: %v <= %v", e1, e0)
	}
}

func TestQuartetEpsilonDegenerate(t *testing.T) {
	// Quartet with two coincident points (s1 == 0) but unequal larger sums
	// must be +Inf.
	m := NewMatrix(4)
	// nodes 0/1 coincident and 2/3 coincident, larger sums balanced
	m.Set(0, 1, 0)
	m.Set(2, 3, 0)
	m.Set(0, 2, 1)
	m.Set(1, 3, 2)
	m.Set(0, 3, 2)
	m.Set(1, 2, 1)
	// sums: d(0,1)+d(2,3)=0, d(0,2)+d(1,3)=3, d(0,3)+d(1,2)=3 -> s2==s3
	if eps := QuartetEpsilon(m, 0, 1, 2, 3); eps != 0 {
		t.Errorf("balanced degenerate quartet eps = %v, want 0", eps)
	}
	m.Set(1, 3, 7)
	// sums: 0+0=0, 1+7=8, 2+1=3 -> slack>0 with lo==0
	if eps := QuartetEpsilon(m, 0, 1, 2, 3); !math.IsInf(eps, 1) {
		t.Errorf("degenerate quartet eps = %v, want +Inf", eps)
	}
}

func TestAvgEpsilonSmallAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(3)
	eps, err := AvgEpsilon(m, 10, rng)
	if err != nil || eps != 0 {
		t.Errorf("n<4: eps=%v err=%v, want 0,nil", eps, err)
	}
	m4 := NewMatrix(4)
	if _, err := AvgEpsilon(m4, 0, rng); err == nil {
		t.Error("samples=0 should fail")
	}
	if _, err := AvgEpsilon(m4, 10, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestEpsilonStar(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{in: 0, want: 0},
		{in: 1, want: 0.5},
		{in: 3, want: 0.75},
		{in: -5, want: 0}, // clamped
	}
	for _, tt := range tests {
		if got := EpsilonStar(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("EpsilonStar(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	// Monotone and bounded in [0, 1).
	prev := -1.0
	for e := 0.0; e < 100; e += 0.5 {
		v := EpsilonStar(e)
		if v <= prev || v >= 1 {
			t.Fatalf("EpsilonStar not monotone/bounded at %v: %v", e, v)
		}
		prev = v
	}
}

func TestFAStar(t *testing.T) {
	v, err := FAStar(0, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1/3.2) > 1e-12 {
		t.Errorf("FAStar(0) = %v, want %v", v, 1/3.2)
	}
	v, err = FAStar(1, 3.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3.2) > 1e-12 {
		t.Errorf("FAStar(1) = %v, want 3.2", v)
	}
	if _, err := FAStar(0.5, 1); err == nil {
		t.Error("alpha<=1 should fail")
	}
	if _, err := FAStar(2, 3.2); err == nil {
		t.Error("f_a>1 should fail")
	}
}

func TestEpsilonSharp(t *testing.T) {
	if v := EpsilonSharp(0.5, 1); v != 0.5 {
		t.Errorf("EpsilonSharp(0.5,1) = %v", v)
	}
	if v := EpsilonSharp(0.9, 3.2); v != 1 {
		t.Errorf("EpsilonSharp should clamp to 1, got %v", v)
	}
	if v := EpsilonSharp(-1, 2); v != 0 {
		t.Errorf("EpsilonSharp should clamp to 0, got %v", v)
	}
}

func TestModelWPR(t *testing.T) {
	if v := ModelWPR(0, 0.5); v != 0 {
		t.Errorf("fb=0: %v", v)
	}
	if v := ModelWPR(1, 0.5); v != 1 {
		t.Errorf("fb=1: %v", v)
	}
	if v := ModelWPR(0.5, 0); v != 0 {
		t.Errorf("eps#=0: %v", v)
	}
	// eps#=1 -> WPR == f_b (random-choice regime).
	if v := ModelWPR(0.3, 1); math.Abs(v-0.3) > 1e-12 {
		t.Errorf("eps#=1: %v, want 0.3", v)
	}
	// Smaller eps# -> smaller WPR at the same f_b.
	if ModelWPR(0.5, 0.2) >= ModelWPR(0.5, 0.8) {
		t.Error("ModelWPR not increasing in eps#")
	}
	// WPR increases with f_b.
	if ModelWPR(0.2, 0.5) >= ModelWPR(0.8, 0.5) {
		t.Error("ModelWPR not increasing in f_b")
	}
}

func TestEpsilonDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := randomTreeMetric(12, rng)
	pcts, err := EpsilonDistribution(m, 2000, []float64{50, 90}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pcts[0] > 1e-9 || pcts[1] > 1e-9 {
		t.Errorf("tree metric epsilon percentiles = %v, want 0", pcts)
	}
	noisy := m.Clone()
	for i := 0; i < noisy.N(); i++ {
		for j := i + 1; j < noisy.N(); j++ {
			noisy.Set(i, j, noisy.Dist(i, j)*(1+rng.Float64()*0.5))
		}
	}
	pcts, err = EpsilonDistribution(noisy, 2000, []float64{10, 50, 90}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !(pcts[0] <= pcts[1] && pcts[1] <= pcts[2]) {
		t.Errorf("percentiles not ordered: %v", pcts)
	}
	if pcts[2] <= 0 {
		t.Errorf("noisy P90 = %v, want > 0", pcts[2])
	}
	// Small spaces yield zeros; bad args fail.
	small, err := EpsilonDistribution(NewMatrix(3), 10, []float64{50}, rng)
	if err != nil || small[0] != 0 {
		t.Errorf("n<4: %v %v", small, err)
	}
	if _, err := EpsilonDistribution(m, 0, []float64{50}, rng); err == nil {
		t.Error("samples=0 should fail")
	}
	if _, err := EpsilonDistribution(m, 10, []float64{50}, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := EpsilonDistribution(m, 10, []float64{101}, rng); err == nil {
		t.Error("bad percentile should fail")
	}
}
