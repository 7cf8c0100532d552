// Command bwc-sim regenerates the paper's evaluation figures. Each -fig
// value reruns one experiment and prints the data series the
// corresponding figure plots.
//
//	bwc-sim -fig 3 -dataset hp          # Fig. 3: clustering accuracy + error CDFs
//	bwc-sim -fig 4 -dataset umd         # Fig. 4: tradeoff of decentralization
//	bwc-sim -fig 5 -dataset hp          # Fig. 5: effect of treeness
//	bwc-sim -fig 6                      # Fig. 6: query routing scalability
//
// Full paper-scale runs take minutes; -scale trades precision for time
// (e.g. -scale 0.1 for a quick look).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bwcluster/internal/buildinfo"
	"bwcluster/internal/sim"
	"bwcluster/internal/stats"
	"bwcluster/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bwc-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bwc-sim", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate: 3, 4, 5 or 6")
	ablation := fs.String("ablation", "", "ablation to run instead of a figure: ncut, trees, drift, construction or sword")
	series := fs.String("series", "", "extra experiment series to run instead of a figure: faults, trace, churn or bandwidth")
	ds := fs.String("dataset", "hp", "dataset: hp or umd (figures 3-5)")
	scale := fs.Float64("scale", 1, "work scale factor (rounds/queries multiplied by this)")
	seed := fs.Int64("seed", 0, "override the experiment seed (0: per-figure default)")
	parallel := fs.Int("parallel", 0, "workers fanning independent data series out (0: one per CPU, 1: sequential; never changes results)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON instead of a table")
	metricsOut := fs.String("metrics", "", "dump telemetry metrics after the run to this file (\"-\": stderr)")
	flightOut := fs.String("flight-dump", "", "dump the flight-recorder ring after the run to this file (\"-\": stderr)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("bwc-sim", buildinfo.String())
		return nil
	}
	var d sim.Dataset
	switch *ds {
	case "hp":
		d = sim.HP
	case "umd":
		d = sim.UMD
	default:
		return fmt.Errorf("unknown dataset %q (want hp or umd)", *ds)
	}
	start := time.Now()
	var err error
	switch {
	case *ablation == "ncut":
		err = runAblationNCut(d, *scale, *seed, *parallel, *jsonOut)
	case *ablation == "trees":
		err = runAblationTrees(d, *scale, *seed, *parallel, *jsonOut)
	case *ablation == "drift":
		err = runAblationDrift(d, *scale, *seed, *parallel, *jsonOut)
	case *ablation == "construction":
		err = runAblationConstruction(*scale, *seed, *parallel, *jsonOut)
	case *ablation == "sword":
		err = runAblationSword(d, *scale, *seed, *parallel, *jsonOut)
	case *ablation != "":
		return fmt.Errorf("unknown ablation %q (want ncut, trees, drift, construction or sword)", *ablation)
	case *series == "faults":
		err = runSeriesFaults(d, *scale, *seed, *parallel, *jsonOut)
	case *series == "trace":
		err = runSeriesTrace(d, *scale, *seed, *parallel, *jsonOut)
	case *series == "churn":
		err = runSeriesChurn(d, *scale, *seed, *parallel, *jsonOut)
	case *series == "bandwidth":
		err = runSeriesBandwidth(d, *scale, *seed, *parallel, *jsonOut)
	case *series != "":
		return fmt.Errorf("unknown series %q (want faults, trace, churn or bandwidth)", *series)
	case *fig == 3:
		err = runFig3(d, *scale, *seed, *parallel, *jsonOut)
	case *fig == 4:
		err = runFig4(d, *scale, *seed, *parallel, *jsonOut)
	case *fig == 5:
		err = runFig5(d, *scale, *seed, *parallel, *jsonOut)
	case *fig == 6:
		err = runFig6(*scale, *seed, *parallel, *jsonOut)
	default:
		return fmt.Errorf("-fig must be 3, 4, 5 or 6 (or use -ablation / -series)")
	}
	if err != nil {
		return err
	}
	if !*jsonOut {
		// Wall-clock time goes to stderr so stdout is a pure function of
		// the flags and seed, byte-comparable against results/.
		fmt.Fprintf(os.Stderr, "# completed in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut); err != nil {
			return err
		}
	}
	if *flightOut != "" {
		return dumpFlight(*flightOut)
	}
	return nil
}

// dumpFlight writes the process flight recorder's retained events in
// the post-mortem line format — the same black box bwc-serve exposes on
// /v1/flight. Runs that attach the recorder (-series trace) leave the
// overlay's recent sends, hops, staleness episodes and anomalies here.
func dumpFlight(path string) error {
	if path == "-" {
		_, err := telemetry.FlightDefault().WriteTo(os.Stderr)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight dump: %w", err)
	}
	if _, err := telemetry.FlightDefault().WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("flight dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flight dump: %w", err)
	}
	return nil
}

// dumpMetrics writes the accumulated telemetry registry in Prometheus
// text format, so batch runs leave the same observability trail the
// server exposes on /metrics.
func dumpMetrics(path string) error {
	if path == "-" {
		return telemetry.Default().WritePrometheus(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	if err := telemetry.Default().WritePrometheus(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metrics dump: %w", err)
	}
	return nil
}

func runFig3(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultAccuracyConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunAccuracy(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# Fig. 3 (%s): WPR vs b, k=%d\n", d, res.K)
	fmt.Printf("%-8s %-14s %-16s %-14s\n", "b(Mbps)", d+"-TREE-CENTRAL", d+"-TREE-DECENTRAL", d+"-EUCL-CENTRAL")
	for _, p := range res.Points {
		fmt.Printf("%-8.1f %-14.4f %-16.4f %-14.4f\n",
			p.B, p.WPR[sim.TreeCentral], p.WPR[sim.TreeDecentral], p.WPR[sim.EuclCentral])
	}
	fmt.Printf("\n# Fig. 3 (%s): CDF of relative bandwidth prediction error\n", d)
	fmt.Printf("%-12s %-10s %-10s\n", "rel.error", d+"-TREE", d+"-EUCL")
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0} {
		fmt.Printf("%-12.2f %-10.4f %-10.4f\n", x,
			cdfAt(res.ErrCDF[sim.TreeCentral], x), cdfAt(res.ErrCDF[sim.EuclCentral], x))
	}
	return nil
}

// emitJSON marshals an experiment result for downstream tooling.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encode json: %w", err)
	}
	return nil
}

// cdfAt evaluates a stepwise CDF at x.
func cdfAt(points []stats.CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range points {
		if p.X > x {
			break
		}
		f = p.F
	}
	return f
}

func runFig4(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultTradeoffConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunTradeoff(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# Fig. 4 (%s): RR vs k, n_cut=%d\n", d, res.NCut)
	fmt.Printf("%-6s %-14s %-16s\n", "k", d+"-TREE-CENTRAL", d+"-TREE-DECENTRAL")
	for _, p := range res.Points {
		fmt.Printf("%-6d %-14.4f %-16.4f\n", p.K, p.RR[sim.TreeCentral], p.RR[sim.TreeDecentral])
	}
	return nil
}

func runFig5(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultTreenessConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunTreeness(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# Fig. 5 (%s): WPR vs f_b per treeness level, k=%d, alpha=%.1f\n", d, res.K, res.Alpha)
	for _, s := range res.Series {
		fmt.Printf("\n# dataset eps_avg=%.3f (noise sigma %.2f)\n", s.EpsAvg, s.Noise)
		fmt.Printf("%-8s %-8s %-8s %-8s %-10s %-8s\n", "b", "f_b", "f_a", "WPR", "WPR^f_a*", "eq1")
		for _, p := range s.Points {
			fmt.Printf("%-8.1f %-8.4f %-8.4f %-8.4f %-10.4f %-8.4f\n",
				p.B, p.FB, p.FA, p.WPR, p.WPRNorm, p.Model)
		}
	}
	return nil
}

func runAblationNCut(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultTradeoffConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunNCutAblation(cfg, []int{5, 10, 20})
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# n_cut ablation (%s): decentralized RR vs k per cutoff\n", d)
	fmt.Printf("%-6s", "k")
	for _, c := range res.Curves {
		fmt.Printf(" ncut=%-9d", c.NCut)
	}
	fmt.Println(" central")
	for i := range res.Curves[0].Points {
		fmt.Printf("%-6d", res.Curves[0].Points[i].K)
		for _, c := range res.Curves {
			fmt.Printf(" %-14.4f", c.Points[i].RR[sim.TreeDecentral])
		}
		fmt.Printf(" %-8.4f\n", res.Curves[len(res.Curves)-1].Points[i].RR[sim.TreeCentral])
	}
	return nil
}

func runAblationTrees(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultAccuracyConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunTreesAblation(cfg, []int{1, 3, 5})
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# forest-size ablation (%s): TREE-CENTRAL WPR vs b per forest size\n", d)
	fmt.Printf("%-8s", "b(Mbps)")
	for _, c := range res.Curves {
		fmt.Printf(" trees=%-8d", c.Trees)
	}
	fmt.Println()
	for i := range res.Curves[0].Points {
		fmt.Printf("%-8.1f", res.Curves[0].Points[i].B)
		for _, c := range res.Curves {
			fmt.Printf(" %-14.4f", c.Points[i].WPR[sim.TreeCentral])
		}
		fmt.Println()
	}
	return nil
}

func runAblationDrift(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultDynamicsConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunDynamics(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# dynamics (%s): bandwidth drifts sigma=%.2f per epoch; stale vs refreshed framework, k=%d\n",
		d, res.DriftSigma, res.K)
	fmt.Printf("%-7s %-10s %-13s %-9s %-12s\n", "epoch", "WPR.stale", "WPR.refreshed", "RR.stale", "RR.refreshed")
	for _, p := range res.Points {
		fmt.Printf("%-7d %-10.4f %-13.4f %-9.4f %-12.4f\n",
			p.Epoch, p.WPRStale, p.WPRRefreshed, p.RRStale, p.RRRefreshed)
	}
	return nil
}

func runAblationConstruction(scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultConstructionConfig().Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunConstructionCost(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# construction cost (%s subsets): measurements per joining host\n", res.Base)
	fmt.Printf("%-6s %-14s %-14s %-8s\n", "n", "full-scan", "anchor-search", "ratio")
	for _, p := range res.Points {
		fmt.Printf("%-6d %-14.1f %-14.1f %-8.2f\n",
			p.N, p.FullPerJoin, p.AnchorPerJoin, p.AnchorPerJoin/p.FullPerJoin)
	}
	return nil
}

func runAblationSword(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultSwordConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunSwordComparison(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# SWORD-like exhaustive baseline vs tree-metric clustering (%s, n=%d)\n", d, res.N)
	fmt.Printf("# SWORD needs %d n-to-n measurements up front; framework construction used %.0f (%.1f%%)\n",
		res.SwordMeasurements, res.TreeMeasurements,
		100*res.TreeMeasurements/float64(res.SwordMeasurements))
	fmt.Printf("# SWORD answers are always correct (WPR 0) but its search is budget-bounded (%d expansions)\n",
		res.Budget)
	fmt.Printf("%-6s %-9s %-11s %-11s %-8s %-8s\n",
		"k", "swordRR", "swordSteps", "exhausted", "treeRR", "treeWPR")
	for _, p := range res.Points {
		fmt.Printf("%-6d %-9.3f %-11.1f %-11.3f %-8.3f %-8.3f\n",
			p.K, p.SwordRR, p.SwordSteps, p.SwordExhausted, p.TreeRR, p.TreeWPR)
	}
	return nil
}

func runSeriesFaults(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultFaultsConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunFaults(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# fault series (%s, n=%d, k=%d): async runtime over seeded fault injection\n", d, res.N, res.K)
	fmt.Printf("# partition cells cut a third of the peers off for the given number of transport sends, then heal\n")
	fmt.Printf("%-8s %-11s %-10s %-10s %-10s %-9s\n",
		"loss", "partition", "msgs", "settle.ms", "converged", "qsuccess")
	for _, p := range res.Points {
		fmt.Printf("%-8.2f %-11d %-10d %-10.1f %-10v %-9.3f\n",
			p.Loss, p.PartitionSends, p.MsgsToSettle, p.SettleMs, p.Converged, p.QuerySuccess)
	}
	return nil
}

func runSeriesTrace(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultTraceSeriesConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	// Attach the process recorder so -flight-dump captures the series'
	// black box (hops, staleness episodes, anomalies).
	cfg.Flight = telemetry.FlightDefault()
	res, err := sim.RunTraceSeries(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# trace series (%s, n=%d, k=%d): traced queries over seeded gossip loss\n", d, res.N, res.K)
	fmt.Printf("# complete: span tree carried every expected hop event; gap: >=1 dropped report surfaced as a gap span\n")
	fmt.Printf("%-8s %-9s %-7s %-9s %-9s %-6s %-10s %-9s %-10s\n",
		"loss", "agree", "hops", "complete", "gapTrees", "evts", "maxAge", "converged", "queries")
	for _, p := range res.Points {
		fmt.Printf("%-8.2f %-9.3f %-7.2f %-9d %-9d %-6.2f %-10d %-9v %-10d\n",
			p.Loss, p.Agreement, p.AvgHops, p.CompleteTraces, p.GapTraces,
			p.AvgHopEvents, p.MaxGossipAgeTicks, p.Converged, p.Queries)
	}
	return nil
}

func runSeriesChurn(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultChurnConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunChurn(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# churn series (%s, n=%d, k=%d): Poisson join/leave with incremental tree + overlay repair\n",
		d, res.N, res.K)
	fmt.Printf("# msgs/meas columns are per-epoch means; rebuild columns are the from-scratch baselines\n")
	fmt.Printf("%-7s %-6s %-7s %-8s %-11s %-12s %-10s %-12s %-7s %-8s %-7s %-6s\n",
		"rate", "joins", "leaves", "rounds", "repair.msg", "rebuild.msg", "meas.incr", "meas.rebld", "RR", "WPR", "stale", "fixed")
	for _, p := range res.Points {
		fmt.Printf("%-7.2f %-6d %-7d %-8.1f %-11.1f %-12.1f %-10.1f %-12.1f %-7.3f %-8.4f %-7d %-6v\n",
			p.Rate, p.Joins, p.Leaves, p.RepairRounds, p.RepairMsgs, p.RebuildMsgs,
			p.MeasIncremental, p.MeasRebuild, p.RR, p.WPR, p.StaleRejects, p.FixedPoint)
	}
	return nil
}

func runSeriesBandwidth(d sim.Dataset, scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultBandwidthConfig(d).Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunBandwidth(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# bandwidth series (%s, n=%d, k=%d): per-link delivered bytes per window, joined against predicted link bandwidth\n",
		d, res.N, res.K)
	fmt.Printf("# windows close at phase boundaries: gossip fan-in to the fixed point, then the fig-3 query workload\n")
	fmt.Printf("# ledger total: %d bytes / %d messages; delivered-counter delta: %d (reconciled=%v); violations: %d\n",
		res.LedgerBytes, res.LedgerMessages, res.DeliveredDelta,
		uint64(res.LedgerMessages) == res.DeliveredDelta, res.Violations)
	fmt.Printf("%-9s %-5s %-7s %-10s %-7s %-12s %-10s %-7s %-10s\n",
		"phase", "win", "link", "bytes", "msgs", "bytes/s", "pred.mbps", "util", "violation")
	for _, p := range res.Phases {
		w := p.Window
		for _, lw := range w.Links {
			fmt.Printf("%-9s %-5d %-7s %-10d %-7d %-12.1f %-10.2f %-7.4f %-10v\n",
				p.Name, w.Seq, fmt.Sprintf("%d-%d", lw.A, lw.B),
				lw.Bytes, lw.Messages, lw.BytesPerSec, lw.PredictedMbps, lw.Utilization, lw.Violation)
		}
		if w.OtherBytes > 0 {
			fmt.Printf("%-9s %-5d %-7s %-10d %-7d %-12s %-10s %-7s %-10s\n",
				p.Name, w.Seq, "other", w.OtherBytes, w.OtherMessages, "-", "-", "-", "-")
		}
	}
	return nil
}

func runFig6(scale float64, seed int64, parallel int, jsonOut bool) error {
	cfg := sim.DefaultScalabilityConfig().Scaled(scale)
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallelism = parallel
	res, err := sim.RunScalability(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(res)
	}
	fmt.Printf("# Fig. 6 (%s subsets): query routing hops vs system size\n", res.Base)
	fmt.Printf("%-6s %-10s %-9s %-6s %-14s %-10s\n",
		"n", "avg.hops", "max.hops", "RR", "msgs/host/rnd", "cvg.rounds")
	for _, p := range res.Points {
		fmt.Printf("%-6d %-10.3f %-9d %-6.3f %-14.2f %-10.1f\n",
			p.N, p.AvgHops, p.MaxHops, p.RR, p.MsgsPerHostRound, p.ConvergeRounds)
	}
	return nil
}
