package sim

import (
	"fmt"
	"math/rand"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/predtree"
)

// ConstructionConfig parameterizes the framework-construction cost
// experiment: how many bandwidth measurements a joining host performs
// under the centralized (full scan) and decentralized (anchor-tree
// search) end-node strategies, over subsets of the UMD dataset.
type ConstructionConfig struct {
	NValues []int
	Rounds  int
	Seed    int64
}

// DefaultConstructionConfig sweeps 50..300 hosts over 5 rounds.
func DefaultConstructionConfig() ConstructionConfig {
	return ConstructionConfig{
		NValues: []int{50, 100, 150, 200, 250, 300},
		Rounds:  5,
		Seed:    7,
	}
}

// Scaled returns a copy with the round count multiplied by f.
func (c ConstructionConfig) Scaled(f float64) ConstructionConfig {
	c.Rounds = scaleInt(c.Rounds, f)
	return c
}

// ConstructionPoint reports the average measurements per joining host at
// one system size.
type ConstructionPoint struct {
	N             int
	FullPerJoin   float64
	AnchorPerJoin float64
}

// ConstructionResult is the construction-cost series.
type ConstructionResult struct {
	Base   Dataset
	Points []ConstructionPoint
}

// Blocks renders the construction-cost series with the anchor/full ratio.
func (r *ConstructionResult) Blocks() Series {
	b := Block{
		Comments: []string{fmt.Sprintf("construction cost (%s subsets): measurements per joining host", r.Base)},
		Columns:  []Column{col("n", 6, "d"), col("full-scan", 14, ".1f"), col("anchor-search", 14, ".1f"), col("ratio", 8, ".2f")},
	}
	for _, p := range r.Points {
		b.Rows = append(b.Rows, []any{p.N, p.FullPerJoin, p.AnchorPerJoin, p.AnchorPerJoin / p.FullPerJoin})
	}
	return Series{b}
}

// RunConstructionCost builds prediction trees in both search modes over
// subsets of the base dataset and reports the per-join measurement cost.
func RunConstructionCost(cfg ConstructionConfig) (*ConstructionResult, error) {
	if len(cfg.NValues) == 0 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("sim: construction needs NValues and positive Rounds")
	}
	dataRng := rand.New(rand.NewSource(cfg.Seed))
	base, err := dataset.Generate(dataset.UMDConfig(), dataRng)
	if err != nil {
		return nil, fmt.Errorf("sim: construction dataset: %w", err)
	}
	out := &ConstructionResult{Base: UMD}
	out.Points = make([]ConstructionPoint, len(cfg.NValues))
	err = forEachIndexed(len(cfg.NValues), func(ni int) error {
		n := cfg.NValues[ni]
		if n > base.N() {
			return fmt.Errorf("sim: subset size %d exceeds base %d", n, base.N())
		}
		fullTotal, anchorTotal := 0, 0
		for round := 0; round < cfg.Rounds; round++ {
			rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(n)*31 + int64(round)))
			bw, err := dataset.RandomSubset(base, n, rng)
			if err != nil {
				return err
			}
			d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
			if err != nil {
				return err
			}
			order := rng.Perm(n)
			full, err := predtree.Build(d, metric.DefaultC, predtree.SearchFull, order)
			if err != nil {
				return err
			}
			anchor, err := predtree.Build(d, metric.DefaultC, predtree.SearchAnchor, order)
			if err != nil {
				return err
			}
			fullTotal += full.Measurements()
			anchorTotal += anchor.Measurements()
		}
		joins := float64(cfg.Rounds * n)
		out.Points[ni] = ConstructionPoint{
			N:             n,
			FullPerJoin:   float64(fullTotal) / joins,
			AnchorPerJoin: float64(anchorTotal) / joins,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
