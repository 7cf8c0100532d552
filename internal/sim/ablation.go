package sim

import "fmt"

// NCutCurve is one Fig. 4-style RR curve measured at a specific n_cut.
type NCutCurve struct {
	NCut   int
	Points []TradeoffPoint
}

// NCutAblationResult sweeps the gossip cutoff: the paper fixes n_cut=10
// and argues the decentralization tradeoff follows from it; this ablation
// shows how the RR gap moves as the cutoff changes.
type NCutAblationResult struct {
	Dataset Dataset
	Curves  []NCutCurve
}

// Blocks renders the n_cut ablation: decentralized RR per cutoff, and
// the centralized RR (which n_cut does not affect) from the last curve.
func (r *NCutAblationResult) Blocks() Series {
	b := Block{
		Comments: []string{fmt.Sprintf("n_cut ablation (%s): decentralized RR vs k per cutoff", r.Dataset)},
		Columns:  []Column{col("k", 6, "d")},
	}
	for _, c := range r.Curves {
		b.Columns = append(b.Columns, col(fmt.Sprintf("ncut=%d", c.NCut), 14, ".4f"))
	}
	b.Columns = append(b.Columns, Column{Name: "central", Width: 8, Verb: ".4f", Bare: true})
	last := r.Curves[len(r.Curves)-1]
	for i, p := range r.Curves[0].Points {
		row := []any{p.K}
		for _, c := range r.Curves {
			row = append(row, c.Points[i].RR[TreeDecentral])
		}
		b.Rows = append(b.Rows, append(row, last.Points[i].RR[TreeCentral]))
	}
	return Series{b}
}

// RunNCutAblation reruns the Fig. 4 experiment for each n_cut value on
// the same dataset and seeds. The curves are independent (each rerun
// derives its randomness from base.Seed alone), so they fan out across
// one worker per CPU without changing any curve.
func RunNCutAblation(base TradeoffConfig, nCuts []int) (*NCutAblationResult, error) {
	if len(nCuts) == 0 {
		return nil, fmt.Errorf("sim: n_cut ablation needs at least one cutoff")
	}
	out := &NCutAblationResult{Dataset: base.Dataset}
	out.Curves = make([]NCutCurve, len(nCuts))
	err := forEachIndexed(len(nCuts), func(i int) error {
		cfg := base
		cfg.NCut = nCuts[i]
		res, err := runTradeoff(cfg, 1) // the curve fan-out is the parallel axis
		if err != nil {
			return fmt.Errorf("sim: ncut ablation (n_cut=%d): %w", nCuts[i], err)
		}
		out.Curves[i] = NCutCurve{NCut: nCuts[i], Points: res.Points}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TreesCurve is one Fig. 3-style WPR sweep measured at a specific
// prediction-forest size.
type TreesCurve struct {
	Trees  int
	Points []AccuracyPoint
}

// TreesAblationResult sweeps the prediction-forest size, quantifying how
// much of the tree approach's accuracy comes from the multi-tree median.
type TreesAblationResult struct {
	Dataset Dataset
	Curves  []TreesCurve
}

// Blocks renders the forest-size ablation: TREE-CENTRAL WPR per size.
func (r *TreesAblationResult) Blocks() Series {
	b := Block{
		Comments: []string{fmt.Sprintf("forest-size ablation (%s): TREE-CENTRAL WPR vs b per forest size", r.Dataset)},
		Columns:  []Column{col("b(Mbps)", 8, ".1f")},
	}
	for _, c := range r.Curves {
		b.Columns = append(b.Columns, col(fmt.Sprintf("trees=%d", c.Trees), 14, ".4f"))
	}
	for i, p := range r.Curves[0].Points {
		row := []any{p.B}
		for _, c := range r.Curves {
			row = append(row, c.Points[i].WPR[TreeCentral])
		}
		b.Rows = append(b.Rows, row)
	}
	return Series{b}
}

// RunTreesAblation reruns the Fig. 3 WPR sweep for each forest size. As
// in RunNCutAblation, the independent curves fan out across the CPUs.
func RunTreesAblation(base AccuracyConfig, sizes []int) (*TreesAblationResult, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("sim: trees ablation needs at least one forest size")
	}
	out := &TreesAblationResult{Dataset: base.Dataset}
	out.Curves = make([]TreesCurve, len(sizes))
	err := forEachIndexed(len(sizes), func(i int) error {
		cfg := base
		cfg.Trees = sizes[i]
		res, err := runAccuracy(cfg, 1) // the curve fan-out is the parallel axis
		if err != nil {
			return fmt.Errorf("sim: trees ablation (trees=%d): %w", sizes[i], err)
		}
		out.Curves[i] = TreesCurve{Trees: sizes[i], Points: res.Points}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
