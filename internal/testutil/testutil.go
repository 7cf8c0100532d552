// Package testutil provides deterministic generators shared by the test
// suites of several packages: exact tree metrics (for correctness
// properties that only hold in tree metric spaces) and noisy variants,
// together with the metric oracles those suites check against.
package testutil

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bwcluster/internal/metric"
)

// RandomTreeMetric builds a random edge-weighted tree with n leaves and
// returns the induced n-by-n leaf-to-leaf distance matrix. By Buneman's
// theorem the result satisfies the four-point condition exactly.
func RandomTreeMetric(n int, rng *rand.Rand) *metric.Matrix {
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
	depth := make([]float64, total)
	order := make([][]int, total) // ancestor paths, computed lazily below
	for v := 1; v < total; v++ {
		depth[v] = depth[parent[v]] + weight[v]
	}
	anc := func(v int) []int {
		if order[v] != nil {
			return order[v]
		}
		var path []int
		for u := v; u != -1; u = parent[u] {
			path = append(path, u)
		}
		order[v] = path
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
	return metric.FromFunc(n, func(i, j int) float64 { return dist(i, j) })
}

// NoisyTreeMetric perturbs each pairwise distance of a random tree metric
// by an independent multiplicative factor uniform in [1-noise, 1+noise].
// noise = 0 yields an exact tree metric; larger noise lowers treeness.
func NoisyTreeMetric(n int, noise float64, rng *rand.Rand) *metric.Matrix {
	base := RandomTreeMetric(n, rng)
	if noise <= 0 {
		return base
	}
	return metric.FromFunc(n, func(i, j int) float64 {
		f := 1 + (rng.Float64()*2-1)*noise
		if f < 0.05 {
			f = 0.05
		}
		return base.Dist(i, j) * f
	})
}

// Perm returns a random permutation of 0..n-1.
func Perm(n int, rng *rand.Rand) []int {
	return rng.Perm(n)
}

// ErrNotMetric reports a violated metric axiom.
var ErrNotMetric = errors.New("testutil: not a metric space")

// CheckMetric verifies non-negativity, zero diagonal, symmetry and the
// triangle inequality (with a small relative tolerance). It returns a
// wrapped ErrNotMetric describing the first violation found.
func CheckMetric(s metric.Space, tol float64) error {
	n := s.N()
	for i := 0; i < n; i++ {
		if d := s.Dist(i, i); d != 0 {
			return fmt.Errorf("%w: d(%d,%d)=%v, want 0", ErrNotMetric, i, i, d)
		}
		for j := i + 1; j < n; j++ {
			d := s.Dist(i, j)
			if d < 0 || math.IsNaN(d) {
				return fmt.Errorf("%w: d(%d,%d)=%v is negative or NaN", ErrNotMetric, i, j, d)
			}
			if r := s.Dist(j, i); r != d {
				return fmt.Errorf("%w: asymmetric d(%d,%d)=%v vs d(%d,%d)=%v", ErrNotMetric, i, j, d, j, i, r)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dij := s.Dist(i, j)
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				via := s.Dist(i, k) + s.Dist(k, j)
				if dij > via*(1+tol)+tol {
					return fmt.Errorf("%w: triangle violated d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						ErrNotMetric, i, j, dij, i, k, k, j, via)
				}
			}
		}
	}
	return nil
}

// AvgEpsilonExact computes the average quartet epsilon over all C(n,4)
// quartets: the O(n^4) reference for metric.AvgEpsilon's sampled
// estimate.
func AvgEpsilonExact(s metric.Space) float64 {
	n := s.N()
	if n < 4 {
		return 0
	}
	sum, count := 0.0, 0
	for w := 0; w < n; w++ {
		for x := w + 1; x < n; x++ {
			for y := x + 1; y < n; y++ {
				for z := y + 1; z < n; z++ {
					eps := metric.QuartetEpsilon(s, w, x, y, z)
					if math.IsInf(eps, 1) {
						continue
					}
					sum += eps
					count++
				}
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
