package cluster

import (
	"math"
	"math/rand"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

// bruteMinDiameter finds the true minimum diameter over all k-subsets.
func bruteMinDiameter(s metric.Space, k int) float64 {
	best := math.Inf(1)
	picked := make([]int, 0, k)
	var rec func(next int)
	rec = func(next int) {
		if len(picked) == k {
			if d := metric.Diameter(s, picked); d < best {
				best = d
			}
			return
		}
		if s.N()-next < k-len(picked) {
			return
		}
		for x := next; x < s.N(); x++ {
			picked = append(picked, x)
			rec(x + 1)
			picked = picked[:len(picked)-1]
		}
	}
	rec(0)
	return best
}

// minDiameter answers the k-diameter query through an index over s.
func minDiameter(t *testing.T, s metric.Space, k int) ([]int, float64, error) {
	t.Helper()
	ix, err := NewIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	return ix.MinDiameter(k)
}

func TestMinDiameterValidation(t *testing.T) {
	m := metric.NewMatrix(3)
	if _, _, err := minDiameter(t, m, 1); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := NewIndex(nil); err == nil {
		t.Error("nil space should fail")
	}
	members, _, err := minDiameter(t, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if members != nil {
		t.Error("k > n should return nil members")
	}
}

// On exact tree metrics, Index.MinDiameter is optimal: it matches the
// brute-force minimum over all k-subsets exactly.
func TestMinDiameterOptimalOnTreeMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7)
		m := testutil.RandomTreeMetric(n, rng)
		for k := 2; k <= n && k <= 5; k++ {
			members, diam, err := minDiameter(t, m, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(members) != k {
				t.Fatalf("got %d members, want %d", len(members), k)
			}
			want := bruteMinDiameter(m, k)
			got := metric.Diameter(m, members)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("n=%d k=%d: diameter %v, optimal %v", n, k, got, want)
			}
			if math.Abs(diam-want) > 1e-9*(1+want) {
				t.Fatalf("n=%d k=%d: reported diameter %v, optimal %v", n, k, diam, want)
			}
		}
	}
}

// On noisy metrics the reported diameter is the tree-metric bound; the
// actual set diameter may differ, but the call still returns k valid
// distinct nodes.
func TestMinDiameterOnNoisyMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := testutil.NoisyTreeMetric(15, 0.4, rng)
	members, diam, err := minDiameter(t, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 5 || diam < 0 {
		t.Fatalf("members=%v diam=%v", members, diam)
	}
	seen := map[int]bool{}
	for _, x := range members {
		if seen[x] {
			t.Fatalf("duplicate member in %v", members)
		}
		seen[x] = true
	}
}

// Consistency with FindCluster: querying with l = the optimal diameter
// must succeed, and with anything strictly smaller (minus tolerance) it
// must fail on tree metrics.
func TestMinDiameterConsistentWithFindCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := testutil.RandomTreeMetric(12, rng)
	for k := 2; k <= 6; k++ {
		_, diam, err := minDiameter(t, m, k)
		if err != nil {
			t.Fatal(err)
		}
		at, err := FindCluster(m, k, diam*(1+1e-12))
		if err != nil {
			t.Fatal(err)
		}
		if at == nil {
			t.Fatalf("k=%d: FindCluster failed at the optimal diameter %v", k, diam)
		}
		below, err := FindCluster(m, k, diam*(1-1e-6))
		if err != nil {
			t.Fatal(err)
		}
		if below != nil && metric.Diameter(m, below) > diam*(1-1e-7) {
			t.Fatalf("k=%d: FindCluster succeeded below the optimum", k)
		}
	}
}
