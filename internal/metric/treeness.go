package metric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// QuartetEpsilon quantifies how far a set of four nodes is from satisfying
// the four-point condition, after Abraham et al. ("Reconstructing
// approximate tree metrics", PODC 2007). For the three pairings of
// {w,x,y,z} into two pairs, let s1 <= s2 <= s3 be the three distance sums.
// A tree metric has s2 == s3 exactly; the epsilon of the quartet is the
// relative slack
//
//	epsilon = (s3 - s2) / s1
//
// which is 0 for a perfect tree-metric quartet and grows without bound as
// the quartet departs from treeness. (The paper only requires "epsilon = 0
// iff 4PC holds" plus a scale-free ordering of datasets by treeness; this
// normalization provides both.) A degenerate quartet with s1 == 0 (two
// coincident nodes) contributes 0 when s2 == s3 and is otherwise reported
// as +Inf by this function and skipped by AvgEpsilon.
func QuartetEpsilon(s Space, w, x, y, z int) float64 {
	s1 := s.Dist(w, x) + s.Dist(y, z)
	s2 := s.Dist(w, y) + s.Dist(x, z)
	s3 := s.Dist(w, z) + s.Dist(x, y)
	lo, mid, hi := sort3(s1, s2, s3)
	slack := hi - mid
	if slack <= 0 {
		return 0
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return slack / lo
}

func sort3(a, b, c float64) (lo, mid, hi float64) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}

// AvgEpsilon estimates the average quartet epsilon of the space by sampling
// `samples` random quartets with the supplied generator. Spaces with fewer
// than four nodes have epsilon 0 by convention. Infinite quartets
// (degenerate distances) are skipped.
func AvgEpsilon(s Space, samples int, rng *rand.Rand) (float64, error) {
	n := s.N()
	if n < 4 {
		return 0, nil
	}
	if samples <= 0 {
		return 0, fmt.Errorf("metric: AvgEpsilon needs samples > 0, got %d", samples)
	}
	if rng == nil {
		return 0, fmt.Errorf("metric: AvgEpsilon needs a non-nil rng")
	}
	sum, count := 0.0, 0
	idx := make([]int, 4)
	for trial := 0; trial < samples; trial++ {
		sampleDistinct(idx, n, rng)
		eps := QuartetEpsilon(s, idx[0], idx[1], idx[2], idx[3])
		if math.IsInf(eps, 1) {
			continue
		}
		sum += eps
		count++
	}
	if count == 0 {
		return 0, nil
	}
	return sum / float64(count), nil
}

func sampleDistinct(dst []int, n int, rng *rand.Rand) {
	for i := range dst {
	retry:
		v := rng.Intn(n)
		for j := 0; j < i; j++ {
			if dst[j] == v {
				goto retry
			}
		}
		dst[i] = v
	}
}

// EpsilonDistribution samples quartet epsilons and returns the requested
// percentiles (each in [0,100]), giving a fuller treeness picture than
// the average alone (Ramasubramanian et al. report exactly such
// distributions).
func EpsilonDistribution(s Space, samples int, percentiles []float64, rng *rand.Rand) ([]float64, error) {
	n := s.N()
	if n < 4 {
		out := make([]float64, len(percentiles))
		return out, nil
	}
	if samples <= 0 {
		return nil, fmt.Errorf("metric: EpsilonDistribution needs samples > 0, got %d", samples)
	}
	if rng == nil {
		return nil, fmt.Errorf("metric: EpsilonDistribution needs a non-nil rng")
	}
	eps := make([]float64, 0, samples)
	idx := make([]int, 4)
	for trial := 0; trial < samples; trial++ {
		sampleDistinct(idx, n, rng)
		e := QuartetEpsilon(s, idx[0], idx[1], idx[2], idx[3])
		if math.IsInf(e, 1) {
			continue
		}
		eps = append(eps, e)
	}
	sort.Float64s(eps)
	out := make([]float64, len(percentiles))
	for i, p := range percentiles {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("metric: percentile %v out of range [0,100]", p)
		}
		if len(eps) == 0 {
			continue
		}
		pos := int(p / 100 * float64(len(eps)-1))
		out[i] = eps[pos]
	}
	return out, nil
}

// EpsilonStar maps epsilon_avg in [0, +Inf) to the bounded treeness
// variable epsilon* = 1 - 1/(1+epsilon_avg) in [0, 1) used by the paper's
// Section IV-C model.
func EpsilonStar(epsAvg float64) float64 {
	if epsAvg < 0 {
		epsAvg = 0
	}
	return 1 - 1/(1+epsAvg)
}

// FAStar rescales the CDF slope f_a in [0,1] to f_a* in [1/alpha, alpha]
// via f_a* = (alpha - 1/alpha) * f_a + 1/alpha, with alpha > 1 (the paper
// uses alpha = 3.2).
func FAStar(fa, alpha float64) (float64, error) {
	if alpha <= 1 {
		return 0, fmt.Errorf("metric: FAStar needs alpha > 1, got %v", alpha)
	}
	if fa < 0 || fa > 1 {
		return 0, fmt.Errorf("metric: FAStar needs f_a in [0,1], got %v", fa)
	}
	return (alpha-1/alpha)*fa + 1/alpha, nil
}

// EpsilonSharp is the adjusted treeness variable epsilon# = min(1,
// epsilon* x f_a*), combining raw treeness with the local density of
// bandwidth values around the query constraint.
func EpsilonSharp(epsStar, faStar float64) float64 {
	v := epsStar * faStar
	if v > 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}

// ModelWPR evaluates the paper's Equation 1, the predicted wrong-pair rate
// WPR = f_b^(1/epsilon#). Edge cases: epsilon# = 0 predicts a perfect
// framework (WPR 0 unless f_b = 1), and f_b outside (0,1) clamps to the
// boundary values.
func ModelWPR(fb, epsSharp float64) float64 {
	switch {
	case fb <= 0:
		return 0
	case fb >= 1:
		return 1
	case epsSharp <= 0:
		return 0
	}
	return math.Pow(fb, 1/epsSharp)
}
