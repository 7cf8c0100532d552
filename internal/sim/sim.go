// Package sim is the experiment harness that regenerates the paper's
// evaluation (Figures 3-6). It wires the substrates together — synthetic
// datasets, the prediction-tree framework, the decentralized overlay, and
// the Vivaldi/k-diameter Euclidean baseline — into per-figure runners with
// deterministic seeding, and computes the paper's metrics (WPR, RR,
// relative prediction error, routing hops).
package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/kdiam"
	"bwcluster/internal/metric"
	"bwcluster/internal/vivaldi"
)

// Approach identifies one of the compared systems, named as in the paper
// (the dataset prefix is implied by context).
type Approach string

const (
	// TreeCentral is Algorithm 1 run centrally on the prediction-tree
	// bandwidth estimates (HP/UMD-TREE-CENTRAL).
	TreeCentral Approach = "TREE-CENTRAL"
	// TreeDecentral is the full decentralized protocol
	// (HP/UMD-TREE-DECENTRAL).
	TreeDecentral Approach = "TREE-DECENTRAL"
	// EuclCentral is the comparison model: Vivaldi 2-d embedding plus the
	// k-diameter algorithm (HP/UMD-EUCL-CENTRAL).
	EuclCentral Approach = "EUCL-CENTRAL"
)

// Dataset selects one of the two evaluation datasets.
type Dataset string

const (
	// HP is the 190-node HP-PlanetLab-like dataset.
	HP Dataset = "HP"
	// UMD is the 317-node UMD-PlanetLab-like dataset.
	UMD Dataset = "UMD"
)

// Config returns the generator configuration for the dataset.
func (d Dataset) Config() (dataset.Config, error) {
	switch d {
	case HP:
		return dataset.HPConfig(), nil
	case UMD:
		return dataset.UMDConfig(), nil
	default:
		return dataset.Config{}, fmt.Errorf("sim: unknown dataset %q", d)
	}
}

// Band returns the paper's query bandwidth band and size constraint for
// the dataset (HP: k=10, b in 15-75; UMD: k=16, b in 30-110).
func (d Dataset) Band() (k int, bLo, bHi float64, err error) {
	switch d {
	case HP:
		return 10, 15, 75, nil
	case UMD:
		return 16, 30, 110, nil
	default:
		return 0, 0, 0, fmt.Errorf("sim: unknown dataset %q", d)
	}
}

// FrameworkConfig controls which prediction frameworks a Framework
// builds: the tree framework's parameters, and the Euclidean baseline.
type FrameworkConfig struct {
	construct.Config
	// Euclid builds the Vivaldi embedding (default parameters) and its
	// k-diameter index.
	Euclid bool
}

// Framework bundles everything one simulation round (one seed) needs: the
// ground-truth bandwidth, the tree-metric prediction framework (built as
// the library's System is) and optionally the Euclidean baseline.
type Framework struct {
	construct.State
	C        float64
	BW       *metric.Matrix // ground truth bandwidth (Mbps)
	RealDist *metric.Matrix // rational transform of BW
	Emb      *vivaldi.Embedding
	EuclIdx  *kdiam.Index
}

// BuildFramework constructs the frameworks for one round: hosts join the
// prediction tree in a random order drawn from rng (this is what differs
// between the paper's "10 different frameworks with different random
// seeds").
func BuildFramework(bw *metric.Matrix, cfg FrameworkConfig, rng *rand.Rand) (*Framework, error) {
	if rng == nil {
		return nil, fmt.Errorf("sim: nil rng")
	}
	cfg.Config = cfg.WithDefaults()
	realDist, err := metric.DistanceFromBandwidth(bw, cfg.C)
	if err != nil {
		return nil, fmt.Errorf("sim: transform bandwidth: %w", err)
	}
	st, err := construct.Build(realDist, cfg.Config, rng)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	f := &Framework{State: st, C: cfg.C, BW: bw, RealDist: realDist}
	if cfg.Euclid {
		emb, err := vivaldi.Embed(realDist, vivaldi.DefaultConfig(), rng)
		if err != nil {
			return nil, fmt.Errorf("sim: vivaldi embed: %w", err)
		}
		f.Emb = emb
		pts := make([]kdiam.Point, emb.N())
		for i := range pts {
			c := emb.Coord(i)
			pts[i] = kdiam.Point{X: c.X, Y: c.Y}
		}
		f.EuclIdx = kdiam.NewIndex(pts)
	}
	return f, nil
}

// PredictedBandwidth returns the tree framework's bandwidth estimate for a
// host pair.
func (f *Framework) PredictedBandwidth(u, v int) float64 {
	d := f.PredDist.Dist(u, v)
	if d <= 0 {
		return f.C / 1e-9
	}
	return f.C / d
}

// EuclideanBandwidth returns the Vivaldi baseline's bandwidth estimate.
func (f *Framework) EuclideanBandwidth(u, v int) (float64, error) {
	if f.Emb == nil {
		return 0, fmt.Errorf("sim: framework built without the Euclidean baseline")
	}
	d := f.Emb.Dist(u, v)
	if d <= 0 {
		return f.C / 1e-9, nil
	}
	return f.C / d, nil
}

// linspace returns n evenly spaced values from lo to hi inclusive.
func linspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
