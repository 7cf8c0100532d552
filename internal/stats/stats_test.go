package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "single", in: []float64{4}, want: 4},
		{name: "pair", in: []float64{2, 4}, want: 3},
		{name: "negatives", in: []float64{-1, 1, -3, 3}, want: 0},
		{name: "fractional", in: []float64{0.5, 1.5, 2.5}, want: 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.in)
			if err != nil {
				t.Fatalf("Mean(%v) error: %v", tt.in, err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := CDF(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("CDF(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := CDFAt(nil, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("CDFAt(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Histogram(nil, 4); !errors.Is(err, ErrEmpty) {
		t.Errorf("Histogram(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := MeanInt(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MeanInt(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := FractionIn(nil, 0, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("FractionIn(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	in := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 15},
		{p: 100, want: 50},
		{p: 50, want: 35},
		{p: 25, want: 20},
		{p: 75, want: 40},
	}
	for _, tt := range tests {
		got, err := Percentile(in, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// percentileBySort is Percentile's reference definition: sort a copy,
// then interpolate linearly between the two closest ranks.
func percentileBySort(xs []float64, p float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameFloat reports whether a and b are the same float64 bit for bit,
// except that a zero matches a zero of either sign: the reference sort is
// not stable, so which of two equal zeros lands at a rank is an accident
// of its swaps, not part of the definition.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func TestPercentileMatchesSortDefinition(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	rng := rand.New(rand.NewSource(5))
	dups := make([]float64, 1000)
	for i := range dups {
		dups[i] = float64(rng.Intn(4))
	}
	wide := make([]float64, 5000)
	for i := range wide {
		wide[i] = rng.NormFloat64() * 1e3
	}
	ascending := make([]float64, 300)
	for i := range ascending {
		ascending[i] = float64(i)
	}
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	organ := append(slices.Clone(ascending), descending...)
	tests := []struct {
		name string
		in   []float64
	}{
		{"n=1", []float64{7}},
		{"n=2", []float64{9, -2}},
		{"n=2 equal", []float64{3, 3}},
		{"signed zeros", []float64{negZero, 0, negZero, 1, 0, -1}},
		{"all negative zero", []float64{negZero, negZero, negZero}},
		{"infinities", []float64{inf, -inf, 3, inf, -2}},
		{"many duplicates", dups},
		{"wide random", wide},
		{"ascending", ascending},
		{"descending", descending},
		{"organ pipe", organ},
	}
	ps := []float64{0, 0.1, 10, 12.5, 25, 33.3, 50, 66.7, 75, 80, 99, 99.99, 100}
	for _, tt := range tests {
		for _, p := range ps {
			got, err := Percentile(tt.in, p)
			if err != nil {
				t.Fatalf("%s: Percentile(%v): %v", tt.name, p, err)
			}
			if want := percentileBySort(tt.in, p); !sameFloat(got, want) {
				t.Errorf("%s: Percentile(%v) = %v (%#x), sort definition gives %v (%#x)",
					tt.name, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestSelectKthEveryRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := make([]float64, 200)
	for i := range in {
		in[i] = float64(rng.Intn(50))
	}
	sorted := slices.Clone(in)
	slices.Sort(sorted)
	for k := range in {
		a := slices.Clone(in)
		if got := selectKth(a, k); got != sorted[k] {
			t.Fatalf("selectKth(k=%d) = %v, want %v", k, got, sorted[k])
		}
		for i, v := range a {
			if (i < k && v > a[k]) || (i > k && v < a[k]) {
				t.Fatalf("k=%d: a[%d]=%v is on the wrong side of a[k]=%v", k, i, v, a[k])
			}
		}
	}
}

func TestPercentileRejectsNaN(t *testing.T) {
	if v, err := Percentile([]float64{1, math.NaN(), 3}, 50); err == nil {
		t.Errorf("NaN sample: got %v, want an error", v)
	}
	if v, err := Percentile([]float64{1, 2, 3}, math.NaN()); err == nil {
		t.Errorf("NaN percentile: got %v, want an error", v)
	}
}

// FuzzPercentile compares Percentile with the sort-then-interpolate
// definition, bit for bit (up to the sign of a zero, see sameFloat).
// Each input byte picks one sample from a small alphabet — signed zeros,
// infinities and a few dozen integers and fractions — so duplicates are
// the rule, and rep repeats the pattern to reach sizes where selection
// partitions instead of sorting.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{1}, uint16(5000), uint8(0))
	f.Add([]byte{0, 1}, uint16(0), uint8(0))
	f.Add([]byte{3, 200, 17, 17, 0, 1, 2, 90}, uint16(10000), uint8(7))
	f.Add([]byte("percentile selection"), uint16(3333), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, pRaw uint16, rep uint8) {
		if len(data) == 0 {
			return
		}
		xs := make([]float64, 0, len(data)*(1+int(rep)))
		for r := 0; r <= int(rep); r++ {
			for i, b := range data {
				var v float64
				switch b % 16 {
				case 0:
					v = math.Copysign(0, -1)
				case 1:
					v = 0
				case 2:
					v = math.Inf(1)
				case 3:
					v = math.Inf(-1)
				default:
					v = float64(int8(b)) / 4
				}
				if r%2 == 1 && i%3 == 0 { // vary the repeats' order
					v = -v
				}
				xs = append(xs, v)
			}
		}
		p := float64(pRaw%10001) / 100
		got, err := Percentile(xs, p)
		if err != nil {
			t.Fatalf("Percentile(%v) over %d samples: %v", p, len(xs), err)
		}
		if want := percentileBySort(xs, p); !sameFloat(got, want) {
			t.Fatalf("Percentile(%v) over %d samples = %v (%#x), sort definition gives %v (%#x)",
				p, len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

func TestPercentileOutOfRange(t *testing.T) {
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("Percentile(-1) should fail")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("Percentile(101) should fail")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Percentile(in, 50); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 1, 2}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("input mutated: %v", in)
		}
	}
}

func TestCDF(t *testing.T) {
	points, err := CDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(points) != len(want) {
		t.Fatalf("CDF returned %d points, want %d", len(points), len(want))
	}
	for i := range want {
		if points[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, points[i], want[i])
		}
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		x    float64
		want float64
	}{
		{x: 0, want: 0},
		{x: 1, want: 0.25},
		{x: 2.5, want: 0.5},
		{x: 4, want: 1},
		{x: 100, want: 1},
	}
	for _, tt := range tests {
		got, err := CDFAt(xs, tt.x)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("CDFAt(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestFractionIn(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	got, err := FractionIn(xs, 15, 45)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.6 {
		t.Errorf("FractionIn = %v, want 0.6", got)
	}
	if _, err := FractionIn(xs, 2, 1); err == nil {
		t.Error("inverted interval should fail")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	bins, err := Histogram(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
	// 0..4 in bin 0 (width 5), 5..10 in bin 1 (10 lands in last bin).
	if bins[0].Count != 5 || bins[1].Count != 6 {
		t.Errorf("counts = %d,%d, want 5,6", bins[0].Count, bins[1].Count)
	}
	total := bins[0].Count + bins[1].Count
	if total != len(xs) {
		t.Errorf("histogram lost samples: %d != %d", total, len(xs))
	}
}

func TestHistogramDegenerate(t *testing.T) {
	bins, err := Histogram([]float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("identical-sample histogram lost samples: %d", total)
	}
	if _, err := Histogram([]float64{1}, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestMeanInt(t *testing.T) {
	got, err := MeanInt([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("MeanInt = %v, want 2.5", got)
	}
}

// Property: the CDF is monotonically non-decreasing in both X and F and
// ends at F == 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		points, err := CDF(xs)
		if err != nil {
			return false
		}
		for i := 1; i < len(points); i++ {
			if points[i].X <= points[i-1].X || points[i].F <= points[i-1].F {
				return false
			}
		}
		return points[len(points)-1].F == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile 0 == min, percentile 100 == max, and the 50th
// percentile lies between them.
func TestPercentileBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		p0, _ := Percentile(xs, 0)
		p100, _ := Percentile(xs, 100)
		p50, _ := Percentile(xs, 50)
		if p0 != lo || p100 != hi {
			t.Fatalf("p0=%v min=%v p100=%v max=%v", p0, lo, p100, hi)
		}
		if p50 < lo || p50 > hi {
			t.Fatalf("median %v outside [%v,%v]", p50, lo, hi)
		}
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		m, _ := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		if m < lo-1e-9 || m > hi+1e-9 {
			t.Fatalf("mean %v outside [%v,%v]", m, lo, hi)
		}
	}
}

// Property: CDFAt evaluated at each CDF point X equals that point's F.
func TestCDFConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10)) // duplicates likely
		}
		points, err := CDF(xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			f, err := CDFAt(xs, p.X)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(f-p.F) > 1e-12 {
				t.Fatalf("CDFAt(%v)=%v, CDF point F=%v", p.X, f, p.F)
			}
		}
	}
}

func TestHistogramPreservesCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		nbins := 1 + rng.Intn(20)
		bins, err := Histogram(xs, nbins)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		if total != n {
			t.Fatalf("histogram total %d != %d", total, n)
		}
	}
}

func TestSortStability(t *testing.T) {
	// Percentile and CDF must agree on ordering semantics; spot check with
	// a shuffled input against its sorted self.
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	shuffled := make([]float64, len(xs))
	copy(shuffled, xs)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sort.Float64s(xs)
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
		a, _ := Percentile(xs, p)
		b, _ := Percentile(shuffled, p)
		if a != b {
			t.Errorf("percentile %v differs: %v vs %v", p, a, b)
		}
	}
}

// BenchmarkPercentile measures one percentile over 130,816 samples — the
// pair count of a 512-host matrix, the sample a System's default
// bandwidth classes are read from — cycling p over 10..80 as they do.
func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 512*511/2)
	for i := range xs {
		xs[i] = 1 + rng.ExpFloat64()*50
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Percentile(xs, float64(10+10*(i%8))); err != nil {
			b.Fatal(err)
		}
	}
}
