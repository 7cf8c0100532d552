package metric_test

import (
	"errors"
	"math/rand"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

// These tests hold testutil's metric oracles, which the dataset tests
// also use, and check metric's epsilon estimates against them. They are
// an external test package so that they may import testutil.

func TestCheckMetricAcceptsTreeMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		m := testutil.RandomTreeMetric(4+rng.Intn(8), rng)
		if err := testutil.CheckMetric(m, 1e-9); err != nil {
			t.Fatalf("tree metric rejected: %v", err)
		}
	}
}

func TestCheckMetricRejectsViolations(t *testing.T) {
	bad := metric.NewMatrix(3)
	bad.Set(0, 1, 1)
	bad.Set(1, 2, 1)
	bad.Set(0, 2, 10) // violates triangle
	err := testutil.CheckMetric(bad, 1e-9)
	if !errors.Is(err, testutil.ErrNotMetric) {
		t.Errorf("err = %v, want ErrNotMetric", err)
	}

	neg := metric.NewMatrix(2)
	neg.Set(0, 1, -1)
	if err := testutil.CheckMetric(neg, 0); !errors.Is(err, testutil.ErrNotMetric) {
		t.Errorf("negative distance: err = %v, want ErrNotMetric", err)
	}
}

// Property: every quartet of an exact tree metric has epsilon 0, so both
// the sampled and exact averages are 0.
func TestTreeMetricEpsilonZeroProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		m := testutil.RandomTreeMetric(5+rng.Intn(6), rng)
		if eps := testutil.AvgEpsilonExact(m); eps > 1e-9 {
			t.Fatalf("exact tree metric has eps = %v", eps)
		}
		eps, err := metric.AvgEpsilon(m, 200, rng)
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
	base := testutil.RandomTreeMetric(12, rng)
	noisy := base.Clone()
	for i := 0; i < noisy.N(); i++ {
		for j := i + 1; j < noisy.N(); j++ {
			noisy.Set(i, j, noisy.Dist(i, j)*(1+rng.Float64()*0.8))
		}
	}
	e0 := testutil.AvgEpsilonExact(base)
	e1 := testutil.AvgEpsilonExact(noisy)
	if e1 <= e0 {
		t.Errorf("noise did not raise epsilon: %v <= %v", e1, e0)
	}
}
