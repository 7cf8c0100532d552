package bwcluster

import (
	"math"
	"testing"
)

// FuzzLoadBytes feeds arbitrary bytes to the system snapshot loader: it
// must reject anything that is not a valid snapshot without panicking.
func FuzzLoadBytes(f *testing.F) {
	// Seed with a real snapshot and mutations of it.
	bw := [][]float64{
		{0, 50, 40},
		{50, 0, 60},
		{40, 60, 0},
	}
	sys, err := New(bw, WithBandwidthClasses([]float64{30, 60}))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := LoadBytes(data)
		if err != nil {
			return
		}
		// Anything accepted must be a usable system.
		if restored.Len() < 2 {
			t.Fatalf("loader accepted a %d-host system", restored.Len())
		}
		if _, err := restored.PredictBandwidth(0, 1); err != nil {
			t.Fatalf("accepted system is unusable: %v", err)
		}
	})
}

// FuzzNewMatrixInput feeds adversarial matrices to New, as bandwidths,
// and to NewLatency, as latencies.
func FuzzNewMatrixInput(f *testing.F) {
	f.Add(3, 10.0, 20.0)
	f.Add(2, 0.0, 5.0)
	f.Add(4, -3.0, 1e300)
	f.Add(3, math.NaN(), 5.0)
	f.Add(3, 7.0, math.Inf(1))
	// Far from a metric: the tree joins hosts 1 and 3 at distance 0.
	f.Add(11, 37.625, 13.0)
	f.Fuzz(func(t *testing.T, n int, a, b float64) {
		if n < 0 || n > 12 {
			return
		}
		raw := make([][]float64, n)
		for i := range raw {
			raw[i] = make([]float64, n)
			for j := range raw[i] {
				if i == j {
					continue
				}
				if (i+j)%2 == 0 {
					raw[i][j] = a
				} else {
					raw[i][j] = b
				}
			}
		}
		if sys, err := New(raw); err == nil && sys.Len() != n {
			t.Fatalf("system has %d hosts, want %d", sys.Len(), n)
		}
		lat, err := NewLatency(raw)
		if err != nil {
			return
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if p, err := lat.PredictLatency(u, v); err != nil || !(p >= 0) || math.IsInf(p, 1) {
					t.Fatalf("latency system predicts %v, %v for (%d,%d)", p, err, u, v)
				}
			}
		}
	})
}
