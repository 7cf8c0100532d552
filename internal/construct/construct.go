// Package construct builds the query state a clustering system answers
// from: hosts embedded into a prediction forest, one host-indexed
// snapshot of the forest's predicted distances, the Algorithm 1 index
// over that snapshot, and the overlay converged over the same snapshot.
// The library's New, Load and NewLatency and the simulator's
// BuildFramework all build through it, so the order of these steps and
// the defaults of their parameters are written here only.
package construct

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
)

// DefaultTrees is the default prediction-forest size. Three trees with
// median prediction cancel most single-tree placement noise (Sequoia's
// multi-tree heuristic) at triple the construction cost.
const DefaultTrees = 3

// Config holds a build's parameters. A zero field takes its default
// (see WithDefaults).
type Config struct {
	// C is the rational-transform constant (0: metric.DefaultC).
	C float64
	// Search selects the prediction-tree end-node search mode (0:
	// predtree.SearchAnchor).
	Search predtree.SearchMode
	// Trees is the prediction-forest size (0: DefaultTrees).
	Trees int
	// Overlay configures the decentralized overlay (NCut 0:
	// overlay.DefaultNCut). Without classes no overlay is built.
	Overlay overlay.Config
	// Workers bounds the worker pool for forest construction and index
	// precomputation (0: one worker per CPU, 1: sequential). It never
	// changes results.
	Workers int
}

// WithDefaults returns cfg with each zero field set to its default.
func (cfg Config) WithDefaults() Config {
	if cfg.C <= 0 {
		cfg.C = metric.DefaultC
	}
	if cfg.Search == 0 {
		cfg.Search = predtree.SearchAnchor
	}
	if cfg.Trees == 0 {
		cfg.Trees = DefaultTrees
	}
	if cfg.Overlay.NCut == 0 {
		cfg.Overlay.NCut = overlay.DefaultNCut
	}
	return cfg
}

// State is the query state of a built system. PredDist is Dist's
// host-indexed matrix: the index, the overlay and every async runtime
// read that one snapshot.
type State struct {
	Forest   *predtree.Forest
	Dist     *overlay.Dist
	PredDist *metric.Matrix
	TreeIdx  *cluster.Index
	Net      *overlay.Network // nil when built without classes
}

// Build embeds the hosts of dist into a prediction forest, joining them
// in orders drawn from rng, and derives the query state from it. It
// draws from rng exactly what predtree.BuildForestParallel draws, so a
// caller may go on drawing from rng with the same results as before.
func Build(dist *metric.Matrix, cfg Config, rng *rand.Rand) (State, error) {
	cfg = cfg.WithDefaults()
	forest, err := predtree.BuildForestParallel(dist, cfg.C, cfg.Search, cfg.Trees, rng, cfg.Workers)
	if err != nil {
		return State{}, fmt.Errorf("build prediction forest: %w", err)
	}
	return Derive(forest, dist.N(), cfg.Overlay, cfg.Workers)
}

// Derive builds the query state over a forest whose hosts are drawn from
// an n-host measurement matrix: one snapshot n wide, the index over it
// and, when ov has classes, the overlay converged over it.
func Derive(forest *predtree.Forest, n int, ov overlay.Config, workers int) (State, error) {
	dist := overlay.NewDist(forest, n)
	st := State{Forest: forest, Dist: dist, PredDist: dist.Matrix()}
	var err error
	if st.TreeIdx, err = cluster.NewIndexParallelAt(st.PredDist, workers, forest.Epoch()); err != nil {
		return State{}, err
	}
	if len(ov.Classes) == 0 {
		return st, nil
	}
	if st.Net, err = overlay.NewNetworkOver(forest, dist, ov); err != nil {
		return State{}, err
	}
	if _, err := st.Net.Converge(0); err != nil {
		return State{}, fmt.Errorf("converge overlay: %w", err)
	}
	return st, nil
}
