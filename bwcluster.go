// Package bwcluster finds bandwidth-constrained clusters of hosts: given
// pairwise bandwidth measurements, it answers queries of the form "find k
// hosts whose pairwise bandwidth is at least b Mbps", in polynomial time,
// with either a centralized scan or decentralized query routing.
//
// It is an implementation of Song, Keleher and Sussman, "Searching for
// Bandwidth-Constrained Clusters" (ICDCS 2011). The key ideas:
//
//   - Internet bandwidth, transformed by d = C/BW, is approximately a
//     tree metric (it nearly satisfies the four-point condition), and
//     k-clique-style clustering — NP-complete in general — is solvable in
//     O(n^3) in tree metric spaces (the paper's Algorithm 1).
//   - A Sequoia-style prediction tree embeds O(n log n) measurements into
//     an edge-weighted tree that predicts all pairwise bandwidths, so
//     clustering needs no further measurements.
//   - Each host, gossiping only with its anchor-tree neighbors, maintains
//     a cluster routing table that routes any query toward a region
//     holding a big-enough cluster (Algorithms 2-4).
//
// Quick start:
//
//	sys, err := bwcluster.New(bandwidthMatrix)        // n x n Mbps
//	...
//	members, err := sys.FindCluster(8, 50)            // 8 hosts, >= 50 Mbps
//	res, err := sys.Query(0, 8, 50)                   // decentralized, from host 0
package bwcluster

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"bwcluster/internal/cluster"
	"bwcluster/internal/construct"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/stats"
)

// DefaultC is the default rational-transform constant (d = C/BW).
const DefaultC = metric.DefaultC

// options collects the functional options.
type options struct {
	cfg     construct.Config // New and NewLatency set cfg.Overlay.Classes
	classes []float64        // bandwidth classes (Mbps)
	seed    int64
}

// Option customizes System construction.
type Option func(*options) error

// WithConstant sets the rational-transform constant C (default 100). All
// constants yield the same clusters; C only scales internal distances.
func WithConstant(c float64) Option {
	return func(o *options) error {
		if !(c > 0) || math.IsInf(c, 1) { // negated so NaN fails too
			return fmt.Errorf("bwcluster: constant must be positive and finite, got %v", c)
		}
		o.cfg.C = c
		return nil
	}
}

// WithNCut bounds how many host records peers gossip per neighbor (the
// paper's n_cut, default 10). Larger values make decentralized queries
// more likely to succeed for large k, at higher message cost.
func WithNCut(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("bwcluster: n_cut must be >= 1, got %d", n)
		}
		o.cfg.Overlay.NCut = n
		return nil
	}
}

// WithBandwidthClasses fixes the bandwidth classes (Mbps) decentralized
// queries snap to. Without this option, eight classes are derived from
// the 10th..80th percentiles of the input bandwidth distribution.
func WithBandwidthClasses(mbps []float64) Option {
	return func(o *options) error {
		if len(mbps) == 0 {
			return fmt.Errorf("bwcluster: at least one bandwidth class is required")
		}
		for _, b := range mbps {
			if !(b > 0) || math.IsInf(b, 1) { // negated so NaN fails too
				return fmt.Errorf("bwcluster: bandwidth class %v must be positive and finite", b)
			}
		}
		o.classes = append([]float64(nil), mbps...)
		return nil
	}
}

// WithTrees sets the prediction-forest size (default 3). Each host is
// embedded into that many independently built prediction trees and
// bandwidth is predicted from the median tree distance; more trees cost
// proportionally more construction measurements but cancel placement
// noise.
func WithTrees(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("bwcluster: tree count must be >= 1, got %d", n)
		}
		o.cfg.Trees = n
		return nil
	}
}

// WithCentralizedConstruction builds the prediction tree with a full scan
// per joining host instead of the decentralized anchor-tree search. It
// measures more but removes one heuristic from the pipeline.
func WithCentralizedConstruction() Option {
	return func(o *options) error {
		o.cfg.Search = predtree.SearchFull
		return nil
	}
}

// WithSeed fixes the random seed governing host join order (and thereby
// the exact prediction tree built). Without it, seed 1 is used, making
// construction deterministic by default.
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithParallelism bounds the worker pool the system uses for forest
// construction. The default (without this option) is one worker per
// CPU; n = 1 forces fully sequential execution. Parallelism never
// changes results: construction splits the seeded random stream before
// fanning out (see DESIGN.md, "Parallel execution model").
func WithParallelism(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("bwcluster: parallelism must be >= 1, got %d", n)
		}
		o.cfg.Workers = n
		return nil
	}
}

// System is a built clustering system over a fixed host population.
// Hosts are identified by their index in the input matrix.
//
// A System is safe for concurrent use once New (or Load) returns: every
// query method — Query, FindCluster, PredictBandwidth, MeasuredBandwidth,
// MaxClusterSize, TightestCluster, FindNodeForSet, QueryNode, Neighbors,
// RoutingTable, DistanceLabel, Stats — only reads the built state; the
// one piece of mutable state, the cluster index's per-k answer tables,
// is built under a mutex and published atomically inside the index. This
// guarantee is exercised by TestSystemConcurrentUse under the race
// detector.
type System struct {
	state   construct.State
	c       float64
	workers int // worker-pool bound for parallel paths (>= 1)
	bw      *metric.Matrix
	ovCfg   overlay.Config // overlay parameters, kept for AsyncRuntime
	classes []float64      // bandwidth classes, ascending

	// parallelism is the requested worker bound, 0 for one worker per
	// CPU. Snapshots persist it rather than workers, so their bytes do
	// not depend on the saving host's core count.
	parallelism int
}

// QueryResult is the outcome of a decentralized query.
type QueryResult struct {
	// Members holds the selected host indices; nil when no cluster was
	// found.
	Members []int
	// Hops is how many overlay hops the query traveled.
	Hops int
	// AnsweredBy is the host that produced the final answer.
	AnsweredBy int
	// Class is the bandwidth class (Mbps) the query was snapped to; it is
	// always >= the requested constraint.
	Class float64
}

// Found reports whether the query returned a cluster.
func (r QueryResult) Found() bool { return len(r.Members) > 0 }

// New builds a System from an n-by-n bandwidth matrix in Mbps. The matrix
// may be asymmetric (forward/reverse measurements are averaged, as in the
// paper); diagonal entries are ignored; every off-diagonal entry must be
// positive and finite. Construction simulates hosts joining the
// decentralized prediction framework one by one and then runs the gossip
// protocol to convergence.
func New(bandwidth [][]float64, opts ...Option) (*System, error) {
	buildStart := time.Now()
	o, bw, err := prepare(bandwidth, opts)
	if err != nil {
		return nil, err
	}
	dist, err := metric.DistanceFromBandwidth(bw, o.cfg.C)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	o.defaultClasses(bw, 10)
	if o.cfg.Overlay.Classes, err = overlay.ClassesFromBandwidths(o.classes, o.cfg.C); err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	st, err := construct.Build(dist, o.cfg, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	mBuildSeconds.Set(time.Since(buildStart).Seconds())
	return &System{
		state: st, c: o.cfg.C, workers: cluster.Workers(o.cfg.Workers, 0), parallelism: o.cfg.Workers,
		bw: bw, ovCfg: o.cfg.Overlay, classes: o.classes,
	}, nil
}

// prepare applies opts over the defaults New and NewLatency share and
// symmetrizes their input matrix.
func prepare(input [][]float64, opts []Option) (options, *metric.Matrix, error) {
	o := options{seed: 1}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return o, nil, err
		}
	}
	o.cfg = o.cfg.WithDefaults()
	m, err := metric.Symmetrize(input)
	if err != nil {
		return o, nil, fmt.Errorf("bwcluster: %w", err)
	}
	if m.N() < 2 {
		return o, nil, fmt.Errorf("bwcluster: need at least 2 hosts, got %d", m.N())
	}
	return o, m, nil
}

// defaultClasses sorts the configured classes, first deriving eight of
// them from the measurement distribution's percentiles from, from+10,
// ..., from+70 when none were configured.
func (o *options) defaultClasses(m *metric.Matrix, from float64) {
	if o.classes == nil {
		vals := m.Values()
		for p := from; p <= from+70; p += 10 {
			v, err := stats.Percentile(vals, p)
			if err != nil || v <= 0 {
				continue
			}
			if len(o.classes) == 0 || v > o.classes[len(o.classes)-1] {
				o.classes = append(o.classes, v)
			}
		}
		if len(o.classes) == 0 {
			o.classes = []float64{1}
		}
	}
	sort.Float64s(o.classes)
}

// Len reports the number of hosts.
func (s *System) Len() int { return s.bw.N() }

// Parallelism reports the system's worker-pool bound.
func (s *System) Parallelism() int { return s.workers }

// Epoch reports the system's membership epoch: the count of host
// add/remove operations applied to the prediction forest since it was
// built. Two systems at the same epoch built from the same inputs hold
// identical forests, which is what lets the serving tier key replica
// freshness and query-cache validity on this single number.
func (s *System) Epoch() uint64 { return s.state.Forest.Epoch() }

// Hosts returns the ids of the hosts currently in the overlay, in join
// order — the live membership after any churn, as opposed to Len,
// which reports the measurement matrix's full width. The fleet's
// rendezvous assignment partitions exactly this set across shards.
func (s *System) Hosts() []int { return s.state.Net.Hosts() }

// Constant returns the rational-transform constant in use.
func (s *System) Constant() float64 { return s.c }

// Classes returns the bandwidth classes (Mbps, ascending) decentralized
// queries snap to.
func (s *System) Classes() []float64 {
	out := make([]float64, len(s.classes))
	copy(out, s.classes)
	return out
}

// PredictBandwidth returns the framework's bandwidth estimate (Mbps) for
// a host pair, without any measurement.
func (s *System) PredictBandwidth(u, v int) (float64, error) {
	if err := s.checkHost(u); err != nil {
		return 0, err
	}
	if err := s.checkHost(v); err != nil {
		return 0, err
	}
	if u == v {
		return 0, fmt.Errorf("bwcluster: bandwidth of a host with itself is undefined")
	}
	d := s.state.PredDist.Dist(u, v)
	if d <= 0 {
		return s.c / 1e-9, nil
	}
	return s.c / d, nil
}

// MeasuredBandwidth returns the (symmetrized) input measurement.
func (s *System) MeasuredBandwidth(u, v int) (float64, error) {
	if err := s.checkHost(u); err != nil {
		return 0, err
	}
	if err := s.checkHost(v); err != nil {
		return 0, err
	}
	return s.bw.At(u, v), nil
}

func (s *System) checkHost(h int) error {
	if h < 0 || h >= s.bw.N() {
		return fmt.Errorf("bwcluster: host %d out of range [0,%d)", h, s.bw.N())
	}
	return nil
}

// FindCluster runs the centralized Algorithm 1 over the predicted
// bandwidths: it returns k hosts drawn from the clustering space of a
// host pair (p, q) predicted to share at least minBandwidth Mbps, every
// member predicted at least minBandwidth to both p and q, or nil if no
// pair's space holds k hosts. All member pairs meet minBandwidth only
// when the predictions form a tree metric; the median of several trees
// (the default) is only approximately one, so some returned pairs may
// be predicted below it. The answer comes from the index built at
// construction: a binary search over a per-k table built on first use,
// always matching the sequential scan's answer. Safe for concurrent use.
func (s *System) FindCluster(k int, minBandwidth float64) ([]int, error) {
	t0 := time.Now()
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, s.c)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	members, err := s.state.TreeIdx.Find(k, l)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: %w", err)
	}
	mFindClusterSeconds.Observe(time.Since(t0).Seconds())
	return members, nil
}

// Query runs the decentralized protocol (Algorithm 4): the query enters
// the overlay at start and is routed toward a region whose cluster
// routing tables promise a big-enough cluster. minBandwidth snaps UP to
// the nearest configured bandwidth class, and the answering peer runs
// Algorithm 1 at that class over its clustering space, so every member
// is predicted at least the class to both hosts of the pair anchoring
// the answer. As with FindCluster, all member pairs meet it only when
// the predictions form a tree metric, which the default median of
// several trees only approximates. Queries only
// read the converged overlay state (a local cluster search reads the
// ladder table its peer built at convergence, and two rows of the shared
// distance snapshot), so Query is safe for concurrent use.
func (s *System) Query(start, k int, minBandwidth float64) (QueryResult, error) {
	if err := s.checkHost(start); err != nil {
		return QueryResult{}, err
	}
	t0 := time.Now()
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, s.c)
	if err != nil {
		return QueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	res, err := s.state.Net.Query(start, k, l)
	if err != nil {
		return QueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	mQuerySeconds.Observe(time.Since(t0).Seconds())
	out := QueryResult{Members: res.Cluster, Hops: res.Hops, AnsweredBy: res.Answered}
	if res.Class > 0 {
		out.Class = s.c / res.Class
	}
	return out, nil
}

// Neighbors returns a host's overlay (anchor-tree) neighbors.
func (s *System) Neighbors(h int) ([]int, error) {
	if err := s.checkHost(h); err != nil {
		return nil, err
	}
	return s.state.Net.Neighbors(h), nil
}

// DistanceLabel renders a host's distance label — the compact coordinate
// that lets any two hosts estimate their bandwidth locally — in the
// paper's arrow notation.
func (s *System) DistanceLabel(h int) (string, error) {
	if err := s.checkHost(h); err != nil {
		return "", err
	}
	label, err := s.state.Forest.Primary().Label(h)
	if err != nil {
		return "", fmt.Errorf("bwcluster: %w", err)
	}
	return label.String(), nil
}

// TightestCluster returns the k hosts with the best possible worst-pair
// predicted bandwidth (the minimum-diameter k-cluster under the rational
// transform, exact in tree metric spaces), together with that worst-pair
// bandwidth. Members is nil when the system has fewer than k hosts.
func (s *System) TightestCluster(k int) (members []int, worstBandwidth float64, err error) {
	sel, _, err := s.state.TreeIdx.MinDiameter(k)
	if err != nil {
		return nil, 0, fmt.Errorf("bwcluster: %w", err)
	}
	if sel == nil {
		return nil, 0, nil
	}
	// Report the diameter actually achieved by the returned set (the
	// median-of-trees prediction is only approximately a tree metric, so
	// the determining pair's distance can be a hair optimistic).
	diam := metric.Diameter(s.state.PredDist, sel)
	if diam <= 0 {
		return sel, s.c / 1e-9, nil
	}
	return sel, s.c / diam, nil
}

// NodeQueryResult is the outcome of a single-node search.
type NodeQueryResult struct {
	// Node is the selected host, -1 when none qualified.
	Node int
	// WorstBandwidth is the node's minimum predicted bandwidth (Mbps) to
	// the input set — the quantity the search maximizes.
	WorstBandwidth float64
	// Hops and AnsweredBy describe the decentralized route (both 0 for
	// the centralized search).
	Hops       int
	AnsweredBy int
}

// Found reports whether a node was returned.
func (r NodeQueryResult) Found() bool { return r.Node >= 0 }

// FindNodeForSet implements the paper's single-node search extension
// centrally: among hosts outside the set, return the one whose worst
// predicted bandwidth to every set member is highest, requiring it to be
// at least minBandwidth. Node is -1 when no host qualifies.
func (s *System) FindNodeForSet(set []int, minBandwidth float64) (NodeQueryResult, error) {
	for _, m := range set {
		if err := s.checkHost(m); err != nil {
			return NodeQueryResult{}, err
		}
	}
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, s.c)
	if err != nil {
		return NodeQueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	node, radius, err := cluster.FindNodeForSet(s.state.PredDist, set, l)
	if err != nil {
		return NodeQueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	if node < 0 {
		return NodeQueryResult{Node: -1}, nil
	}
	return NodeQueryResult{Node: node, WorstBandwidth: s.c / radius}, nil
}

// QueryNode runs the single-node search decentrally: the query enters at
// start and hill-climbs over the overlay toward the host best connected
// to the whole set.
func (s *System) QueryNode(start int, set []int, minBandwidth float64) (NodeQueryResult, error) {
	if err := s.checkHost(start); err != nil {
		return NodeQueryResult{}, err
	}
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, s.c)
	if err != nil {
		return NodeQueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	res, err := s.state.Net.QueryNode(start, set, l)
	if err != nil {
		return NodeQueryResult{}, fmt.Errorf("bwcluster: %w", err)
	}
	out := NodeQueryResult{Node: res.Node, Hops: res.Hops, AnsweredBy: res.Answered}
	if res.Found() && res.Radius > 0 {
		out.WorstBandwidth = s.c / res.Radius
	}
	return out, nil
}

// Stats summarizes what it cost to build and run this system.
type SystemStats struct {
	// Hosts is the population size.
	Hosts int
	// Trees is the prediction-forest size.
	Trees int
	// Measurements is how many measurement lookups framework construction
	// performed; DistinctPairs is how many distinct host pairs that
	// touched (out of n(n-1)/2 possible) — the real network cost when
	// hosts cache results.
	Measurements  int
	DistinctPairs int
	// GossipRounds and GossipMessages describe the background protocol
	// run so far.
	GossipRounds   int
	GossipMessages int
	// OverlayMaxDepth, OverlayAvgDepth and OverlayMaxDegree describe the
	// anchor-tree overlay's shape, which bounds query routing length and
	// per-peer gossip cost.
	OverlayMaxDepth  int
	OverlayAvgDepth  float64
	OverlayMaxDegree int
}

// Stats reports construction and protocol costs.
func (s *System) Stats() SystemStats {
	shape := s.state.Forest.Primary().AnchorStats()
	return SystemStats{
		Hosts:            s.bw.N(),
		Trees:            s.state.Forest.Size(),
		Measurements:     s.state.Forest.Measurements(),
		DistinctPairs:    s.state.Forest.DistinctMeasurements(),
		GossipRounds:     s.state.Net.Rounds(),
		GossipMessages:   s.state.Net.Stats().Messages(),
		OverlayMaxDepth:  shape.MaxDepth,
		OverlayAvgDepth:  shape.AvgDepth,
		OverlayMaxDegree: shape.MaxDegree,
	}
}

// CRTEntry is one neighbor direction of a host's cluster routing table:
// for each bandwidth class (aligned with Classes()), the maximum cluster
// size known to exist in that direction.
type CRTEntry struct {
	Neighbor int
	MaxSizes []int
}

// RoutingTable exposes host h's cluster routing table: its own per-class
// maximum cluster sizes (the local clustering space) and one entry per
// overlay neighbor. This is the state Algorithm 4 routes on.
func (s *System) RoutingTable(h int) (self []int, entries []CRTEntry, err error) {
	if err := s.checkHost(h); err != nil {
		return nil, nil, err
	}
	// The overlay indexes CRTs by ascending DISTANCE class, which is
	// descending bandwidth; reverse so the slices align with Classes().
	self = reverseInts(s.state.Net.SelfCRT(h))
	for _, nb := range s.state.Net.Neighbors(h) {
		entries = append(entries, CRTEntry{Neighbor: nb, MaxSizes: reverseInts(s.state.Net.CRT(h, nb))})
	}
	return self, entries, nil
}

func reverseInts(xs []int) []int {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// WritePredictionDOT renders the primary prediction tree in Graphviz DOT
// format (hosts as boxes, inner nodes as circles, edge weights labelled).
func (s *System) WritePredictionDOT(w io.Writer) error {
	return s.state.Forest.Primary().WritePredictionDOT(w)
}

// WriteAnchorDOT renders the overlay (anchor tree) in Graphviz DOT
// format.
func (s *System) WriteAnchorDOT(w io.Writer) error {
	return s.state.Forest.Primary().WriteAnchorDOT(w)
}

// MaxClusterSize reports the largest cluster size any query with the
// given bandwidth constraint could return (on predicted bandwidths).
func (s *System) MaxClusterSize(minBandwidth float64) (int, error) {
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, s.c)
	if err != nil {
		return 0, fmt.Errorf("bwcluster: %w", err)
	}
	return s.state.TreeIdx.MaxSize(l), nil
}
