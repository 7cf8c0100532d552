package bwcluster

import (
	"fmt"
	"math"

	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
)

// LatencySystem finds latency-constrained clusters: k hosts with pairwise
// latency at most a bound. The paper's future work points out that
// latency also embeds well into tree metric spaces, so the same
// machinery applies with the identity transform (distances are
// milliseconds directly, no rational transform).
type LatencySystem struct {
	derived                // pred holds the predicted latency (ms)
	lat     *metric.Matrix // measured latency (ms)
	classes []float64      // latency classes (ms), ascending
}

// WithLatencyClasses fixes the latency classes (ms) decentralized
// queries snap to; without it, classes derive from the input latency
// distribution's 20th..90th percentiles.
func WithLatencyClasses(ms []float64) Option {
	// Latency classes reuse the option slot for classes; NewLatency
	// interprets them as milliseconds.
	return WithBandwidthClasses(ms)
}

// NewLatency builds a latency clustering system from an n-by-n latency
// matrix in milliseconds (asymmetric input is averaged, diagonal
// ignored, off-diagonal entries must be positive and finite).
func NewLatency(latency [][]float64, opts ...Option) (*LatencySystem, error) {
	o, lat, err := prepare(latency, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < lat.N(); i++ {
		for j := i + 1; j < lat.N(); j++ {
			if v := lat.At(i, j); !(v > 0) || math.IsInf(v, 1) { // negated so NaN fails too
				return nil, fmt.Errorf("bwcluster: latency(%d,%d)=%v must be positive and finite", i, j, v)
			}
		}
	}
	o.defaultClasses(lat, 20)
	// Latency classes are already distances: no transform.
	cfg := overlay.Config{NCut: o.nCut, Classes: o.classes}
	d, err := o.build(lat, cfg, cluster.Workers(o.parallelism, 0))
	if err != nil {
		return nil, err
	}
	return &LatencySystem{derived: d, lat: lat, classes: o.classes}, nil
}

// Len reports the number of hosts.
func (s *LatencySystem) Len() int { return s.lat.N() }

// Classes returns the latency classes (ms, ascending).
func (s *LatencySystem) Classes() []float64 {
	out := make([]float64, len(s.classes))
	copy(out, s.classes)
	return out
}

func (s *LatencySystem) checkHost(h int) error {
	if h < 0 || h >= s.lat.N() {
		return fmt.Errorf("bwcluster: host %d out of range [0,%d)", h, s.lat.N())
	}
	return nil
}

// PredictLatency returns the framework's latency estimate (ms).
func (s *LatencySystem) PredictLatency(u, v int) (float64, error) {
	if err := s.checkHost(u); err != nil {
		return 0, err
	}
	if err := s.checkHost(v); err != nil {
		return 0, err
	}
	if u == v {
		return 0, nil
	}
	return s.pred.Dist(u, v), nil
}

// MeasuredLatency returns the (symmetrized) input measurement.
func (s *LatencySystem) MeasuredLatency(u, v int) (float64, error) {
	if err := s.checkHost(u); err != nil {
		return 0, err
	}
	if err := s.checkHost(v); err != nil {
		return 0, err
	}
	return s.lat.At(u, v), nil
}

// FindCluster returns k hosts predicted to be within maxLatency ms of
// each other, or nil if none exist.
func (s *LatencySystem) FindCluster(k int, maxLatency float64) ([]int, error) {
	if !(maxLatency >= 0) { // negated so NaN fails too
		return nil, fmt.Errorf("bwcluster: maxLatency must be >= 0, got %v", maxLatency)
	}
	members, err := s.treeIdx.Find(k, maxLatency)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	return members, nil
}

// Query runs the decentralized protocol with a latency constraint;
// maxLatency snaps DOWN to the nearest configured class, so returned
// clusters always meet the requested bound (on predicted latency).
func (s *LatencySystem) Query(start, k int, maxLatency float64) (QueryResult, error) {
	if err := s.checkHost(start); err != nil {
		return QueryResult{}, err
	}
	res, err := s.net.Query(start, k, maxLatency)
	if err != nil {
		return QueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	return QueryResult{
		Members: res.Cluster, Hops: res.Hops,
		AnsweredBy: res.Answered, Class: res.Class,
	}, nil
}
