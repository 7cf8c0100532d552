// Package stats provides the small set of descriptive statistics used by
// the simulation harness: means, percentiles, empirical CDFs and simple
// histograms. All functions are pure and operate on copies, so callers may
// keep mutating their slices after the call.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or an error for an empty sample.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks: what sorting xs and interpolating
// gives (a zero result may differ in sign, as equal zeros may sort either
// way), found by selection on a copy in O(n) expected time. The input is
// not modified. A NaN sample is an error, since it has no rank.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(p >= 0 && p <= 100) { // negated so NaN fails too
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	buf := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) {
			return 0, fmt.Errorf("stats: percentile of a sample with NaN at index %d", i)
		}
		buf[i] = x
	}
	rank := p / 100 * float64(len(buf)-1)
	lo := int(math.Floor(rank))
	vlo := selectKth(buf, lo)
	if float64(lo) == rank {
		return vlo, nil
	}
	// Everything after position lo is now no smaller than vlo, so the
	// next order statistic is the least of it.
	vhi := slices.Min(buf[lo+1:])
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac, nil
}

// selectKth reorders a so that a[k] holds the value sorting a would put
// there, with nothing larger before it and nothing smaller after it, and
// returns a[k]. It is quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal values cost O(n); a window that
// has not converged after 2·log2(n) rounds is sorted instead, which
// bounds the worst case at O(n log n).
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a) // a[k] lies in a[lo:hi]
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 12 && rounds > 0; rounds-- {
		w := a[lo:hi]
		pivot := median3(w[0], w[len(w)/2], w[len(w)-1])
		// Three-way partition: w[:lt] < pivot, w[lt:gt] == pivot,
		// w[gt:] > pivot.
		lt, i, gt := 0, 0, len(w)
		for i < gt {
			switch v := w[i]; {
			case v < pivot:
				w[lt], w[i] = v, w[lt]
				lt++
				i++
			case v > pivot:
				gt--
				w[i], w[gt] = w[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lo+lt:
			hi = lo + lt
		case k >= lo+gt:
			lo += gt
		default:
			return a[k]
		}
	}
	slices.Sort(a[lo:hi])
	return a[k]
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// CDFPoint is a single point of an empirical CDF: the fraction F of samples
// with value <= X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF of xs as a sorted sequence of points, one
// per distinct sample value. F is always in (0, 1].
func CDF(xs []float64) ([]CDFPoint, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	points := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Emit one point per run of equal values, at the end of the run.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		points = append(points, CDFPoint{X: sorted[i], F: float64(i+1) / n})
	}
	return points, nil
}

// CDFAt returns the empirical CDF of xs evaluated at x: the fraction of
// samples <= x.
func CDFAt(xs []float64, x float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	count := 0
	for _, v := range xs {
		if v <= x {
			count++
		}
	}
	return float64(count) / float64(len(xs)), nil
}

// FractionIn returns the fraction of samples falling in the closed
// interval [lo, hi].
func FractionIn(xs []float64, lo, hi float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if lo > hi {
		return 0, fmt.Errorf("stats: interval [%v,%v] is inverted", lo, hi)
	}
	count := 0
	for _, v := range xs {
		if v >= lo && v <= hi {
			count++
		}
	}
	return float64(count) / float64(len(xs)), nil
}

// MeanInt is a convenience wrapper around Mean for integer samples.
func MeanInt(xs []int) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs)), nil
}
