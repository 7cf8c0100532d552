package sim

import (
	"math"

	"bwcluster/internal/metric"
	"bwcluster/internal/stats"
)

// WrongPairs counts how many pairs of the returned cluster violate the
// real bandwidth constraint b, along with the total pair count — the raw
// ingredients of the paper's WPR metric.
func WrongPairs(bw *metric.Matrix, members []int, b float64) (wrong, total int) {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			total++
			if bw.At(members[i], members[j]) < b {
				wrong++
			}
		}
	}
	return wrong, total
}

// WPRAccumulator aggregates wrong-pair counts across many queries.
type WPRAccumulator struct {
	wrong, total int
}

// Add folds one returned cluster into the accumulator.
func (a *WPRAccumulator) Add(bw *metric.Matrix, members []int, b float64) {
	w, t := WrongPairs(bw, members, b)
	a.wrong += w
	a.total += t
}

// Value returns the wrong pair rate, 0 when no pairs were observed.
func (a *WPRAccumulator) Value() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.wrong) / float64(a.total)
}

// RateAccumulator tracks a success ratio (used for RR, the return rate).
type RateAccumulator struct {
	hits, total int
}

// Add records one trial.
func (a *RateAccumulator) Add(hit bool) {
	a.total++
	if hit {
		a.hits++
	}
}

// Value returns the rate, 0 when nothing was recorded.
func (a *RateAccumulator) Value() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.total)
}

// RelativeErrors computes |BW - BWpred| / BW for every pair, where the
// predicted bandwidth comes from predictor. This feeds the Fig. 3 CDFs.
func RelativeErrors(bw *metric.Matrix, predictor func(u, v int) float64) []float64 {
	n := bw.N()
	out := make([]float64, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			real := bw.At(u, v)
			if real <= 0 {
				continue
			}
			pred := predictor(u, v)
			if math.IsInf(pred, 0) || math.IsNaN(pred) {
				pred = real // coincident embeddings predict perfectly
			}
			out = append(out, math.Abs(real-pred)/real)
		}
	}
	return out
}

// DownsampleCDF reduces a CDF to at most maxPoints points, keeping the
// first and last, so figure output stays readable.
func DownsampleCDF(points []stats.CDFPoint, maxPoints int) []stats.CDFPoint {
	if maxPoints < 2 || len(points) <= maxPoints {
		return points
	}
	out := make([]stats.CDFPoint, 0, maxPoints)
	step := float64(len(points)-1) / float64(maxPoints-1)
	for i := 0; i < maxPoints; i++ {
		out = append(out, points[int(float64(i)*step+0.5)])
	}
	out[len(out)-1] = points[len(points)-1]
	return out
}
