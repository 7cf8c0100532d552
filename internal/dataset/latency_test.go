package dataset

import (
	"math/rand"
	"testing"

	"bwcluster/internal/testutil"
)

func TestLatencyConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []LatencyConfig{
		{N: 0, Regions: 1, AccessMsLo: 1, AccessMsHi: 2},
		{N: 5, Regions: 0, AccessMsLo: 1, AccessMsHi: 2},
		{N: 5, Regions: 1, AccessMsLo: 0, AccessMsHi: 2},
		{N: 5, Regions: 1, AccessMsLo: 2, AccessMsHi: 1},
		{N: 5, Regions: 1, AccessMsLo: 1, AccessMsHi: 2, EdgeMsLo: 3, EdgeMsHi: 1},
		{N: 5, Regions: 1, AccessMsLo: 1, AccessMsHi: 2, NoiseSigma: -1},
	}
	for i, cfg := range bad {
		if _, err := GenerateLatency(cfg, rng); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if _, err := GenerateLatency(DefaultLatencyConfig(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestGenerateLatencyBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultLatencyConfig()
	lat, err := GenerateLatency(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lat.N() != cfg.N {
		t.Fatalf("N = %d, want %d", lat.N(), cfg.N)
	}
	for i := 0; i < lat.N(); i++ {
		for j := i + 1; j < lat.N(); j++ {
			if v := lat.At(i, j); v <= 0 {
				t.Fatalf("latency(%d,%d) = %v", i, j, v)
			}
		}
	}
}

// The noise-free latency model is an exact (additive) tree metric.
func TestNoiselessLatencyIsTreeMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultLatencyConfig()
	cfg.N = 22
	cfg.NoiseSigma = 0
	lat, err := GenerateLatency(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.CheckMetric(lat, 1e-9); err != nil {
		t.Fatalf("not a metric: %v", err)
	}
	if eps := testutil.AvgEpsilonExact(lat); eps > 1e-9 {
		t.Errorf("noise-free latency epsilon = %v, want 0", eps)
	}
}

func TestGenerateLatencyDeterministic(t *testing.T) {
	cfg := DefaultLatencyConfig()
	cfg.N = 20
	a, err := GenerateLatency(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateLatency(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("non-deterministic at (%d,%d)", i, j)
			}
		}
	}
}
