package bwcluster

import (
	"fmt"
	"math"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/metric"
)

// LatencySystem finds latency-constrained clusters: k hosts with pairwise
// latency at most a bound. The paper's future work points out that
// latency also embeds well into tree metric spaces, so the same
// machinery applies with the identity transform (distances are
// milliseconds directly, no rational transform).
type LatencySystem struct {
	state   construct.State // PredDist holds the predicted latency (ms)
	lat     *metric.Matrix  // measured latency (ms)
	classes []float64       // latency classes (ms), ascending
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
	o.cfg.Overlay.Classes = o.classes
	st, err := construct.Build(lat, o.cfg, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	return &LatencySystem{state: st, lat: lat, classes: o.classes}, nil
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
	return s.state.PredDist.Dist(u, v), nil
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

// FindCluster runs Algorithm 1 over the predicted latencies: it returns
// k hosts drawn from the clustering space of a host pair (p, q)
// predicted within maxLatency ms, every member predicted within
// maxLatency of both p and q, or nil if no pair's space holds k hosts.
// All member pairs are within maxLatency only when the predictions form
// a tree metric, which the default median of several trees only
// approximates.
func (s *LatencySystem) FindCluster(k int, maxLatency float64) ([]int, error) {
	if !(maxLatency >= 0) { // negated so NaN fails too
		return nil, fmt.Errorf("bwcluster: maxLatency must be >= 0, got %v", maxLatency)
	}
	members, err := s.state.TreeIdx.Find(k, maxLatency)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	return members, nil
}

// Query runs the decentralized protocol with a latency constraint.
// maxLatency snaps DOWN to the nearest configured class, and every
// member of the answer is predicted within that class of both hosts of
// the pair anchoring it; as with FindCluster, all member pairs are
// within it only when the predictions form a tree metric.
func (s *LatencySystem) Query(start, k int, maxLatency float64) (QueryResult, error) {
	if err := s.checkHost(start); err != nil {
		return QueryResult{}, err
	}
	res, err := s.state.Net.Query(start, k, maxLatency)
	if err != nil {
		return QueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	return QueryResult{
		Members: res.Cluster, Hops: res.Hops,
		AnsweredBy: res.Answered, Class: res.Class,
	}, nil
}
