package cluster

import (
	"math"
	"math/rand"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

func TestFindNodeForSetValidation(t *testing.T) {
	m := metric.NewMatrix(3)
	if _, _, err := FindNodeForSet(nil, []int{0}, 1); err == nil {
		t.Error("nil space should fail")
	}
	if _, _, err := FindNodeForSet(m, nil, 1); err == nil {
		t.Error("empty set should fail")
	}
	if _, _, err := FindNodeForSet(m, []int{5}, 1); err == nil {
		t.Error("out-of-range member should fail")
	}
	if _, _, err := FindNodeForSet(m, []int{0}, -1); err == nil {
		t.Error("l<0 should fail")
	}
}

func TestFindNodeForSetLine(t *testing.T) {
	// Nodes at positions 0, 1, 2, 10.
	m := lineMetric(0, 1, 2, 10)
	tests := []struct {
		name    string
		set     []int
		l       float64
		want    int
		wantNil bool
	}{
		{name: "between endpoints", set: []int{0, 2}, l: 5, want: 1},
		{name: "single member", set: []int{3}, l: 100, want: 2},
		{name: "too tight", set: []int{0, 3}, l: 1, wantNil: true},
		{name: "all but one", set: []int{0, 1, 3}, l: 100, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, radius, err := FindNodeForSet(m, tt.set, tt.l)
			if err != nil {
				t.Fatal(err)
			}
			if tt.wantNil {
				if got != -1 {
					t.Fatalf("got %d, want none", got)
				}
				return
			}
			if got != tt.want {
				t.Fatalf("got %d (radius %v), want %d", got, radius, tt.want)
			}
			if radius != setRadius(m, got, tt.set) {
				t.Errorf("radius %v inconsistent with setRadius %v", radius, setRadius(m, got, tt.set))
			}
		})
	}
}

// Property: the returned node minimizes the set radius among all
// qualifying candidates (brute-force cross-check on random spaces).
func TestFindNodeForSetOptimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		m := testutil.NoisyTreeMetric(n, 0.3, rng)
		setSize := 1 + rng.Intn(3)
		set := rng.Perm(n)[:setSize]
		vals := m.Values()
		l := vals[rng.Intn(len(vals))]
		got, radius, err := FindNodeForSet(m, set, l)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		inSet := map[int]bool{}
		for _, s := range set {
			inSet[s] = true
		}
		want, wantR := -1, math.Inf(1)
		for x := 0; x < n; x++ {
			if inSet[x] {
				continue
			}
			if r := setRadius(m, x, set); r <= l && r < wantR {
				want, wantR = x, r
			}
		}
		if got != want {
			t.Fatalf("trial %d: got %d (r=%v), want %d (r=%v)", trial, got, radius, want, wantR)
		}
		if got >= 0 && math.Abs(radius-wantR) > 1e-12 {
			t.Fatalf("trial %d: radius %v, want %v", trial, radius, wantR)
		}
	}
}

func TestSetRadius(t *testing.T) {
	m := lineMetric(0, 5, 9)
	if r := setRadius(m, 0, []int{1, 2}); r != 9 {
		t.Errorf("setRadius = %v, want 9", r)
	}
	if r := setRadius(m, 1, []int{0, 2}); r != 5 {
		t.Errorf("setRadius = %v, want 5", r)
	}
	if r := setRadius(m, 0, nil); !math.IsInf(r, 1) {
		t.Errorf("empty set radius = %v, want +Inf", r)
	}
}

// setRadius returns max_{m in set} d(x, m), the quantity FindNodeForSet
// minimizes, or +Inf for an empty set.
func setRadius(s metric.Space, x int, set []int) float64 {
	if len(set) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, m := range set {
		if d := s.Dist(x, m); d > worst {
			worst = d
		}
	}
	return worst
}
