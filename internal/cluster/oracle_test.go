package cluster

import (
	"math/rand"
	"testing"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
)

// Test oracles: exhaustive references the package's tests hold Algorithm
// 1 and its index against.

// valid reports whether the given nodes form a cluster of diameter at most
// l in s (checking every pair against the actual distances, with no
// tree-metric assumption).
func valid(s metric.Space, nodes []int, l float64) bool {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if s.Dist(nodes[i], nodes[j]) > l {
				return false
			}
		}
	}
	return true
}

// bruteForce searches all subsets for k nodes with true diameter at most l
// (exact in any metric space, exponential time). It is the test reference
// for FindCluster's completeness on tree metrics.
func bruteForce(s metric.Space, k int, l float64) ([]int, error) {
	if err := validate(s, k, l); err != nil {
		return nil, err
	}
	picked := make([]int, 0, k)
	var rec func(next int) []int
	rec = func(next int) []int {
		if len(picked) == k {
			out := make([]int, k)
			copy(out, picked)
			return out
		}
		// Not enough nodes left to finish.
		if s.N()-next < k-len(picked) {
			return nil
		}
		for x := next; x < s.N(); x++ {
			ok := true
			for _, m := range picked {
				if s.Dist(m, x) > l {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			picked = append(picked, x)
			if out := rec(x + 1); out != nil {
				return out
			}
			picked = picked[:len(picked)-1]
		}
		return nil
	}
	return rec(0), nil
}

// maxClusterSizeBinary computes MaxClusterSize's maximum via binary
// search over k with repeated FindCluster calls, the strategy Algorithm 3
// suggests for a node's local clustering space. It exists for the
// ablation benchmark comparing the two strategies; MaxClusterSize is the
// direct O(n^3) scan.
func maxClusterSizeBinary(s metric.Space, l float64) (int, error) {
	if s == nil || s.N() == 0 {
		return 0, nil
	}
	lo, hi := 2, s.N() // invariant: answer < hi+1
	if c, err := FindCluster(s, 2, l); err != nil {
		return 0, err
	} else if c == nil {
		return 1, nil
	}
	// Largest feasible k in [lo, hi].
	for lo < hi {
		mid := (lo + hi + 1) / 2
		c, err := FindCluster(s, mid, l)
		if err != nil {
			return 0, err
		}
		if c != nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// BenchmarkAblationMaxClusterSize compares the direct O(n^3) max-size
// scan against the binary-search-over-FindCluster strategy Algorithm 3
// suggests, on a 120-host HP-like space.
func BenchmarkAblationMaxClusterSize(b *testing.B) {
	bw, err := dataset.Generate(dataset.HPConfig().WithN(120), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	l := metric.DefaultC / 30
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxClusterSize(d, l)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := maxClusterSizeBinary(d, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}
