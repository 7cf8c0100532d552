// Command bwc-sim regenerates the paper's evaluation figures, its
// ablations and the extra experiment series. Each -fig, -ablation or
// -series value reruns one experiment and prints the data series the
// corresponding figure plots.
//
//	bwc-sim -fig 3 -dataset hp          # Fig. 3: clustering accuracy + error CDFs
//	bwc-sim -fig 4 -dataset umd         # Fig. 4: tradeoff of decentralization
//	bwc-sim -fig 5 -dataset hp          # Fig. 5: effect of treeness
//	bwc-sim -fig 6                      # Fig. 6: query routing scalability
//	bwc-sim -ablation ncut -scale 0.3   # n_cut sweep of Fig. 4
//	bwc-sim -series churn               # repair vs rebuild under churn
//
// Full paper-scale runs take minutes; -scale trades precision for time
// (e.g. -scale 0.1 for a quick look). Independent data series fan out
// across one worker per GOMAXPROCS; the fan-out never changes results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"bwcluster/internal/buildinfo"
	"bwcluster/internal/sim"
	"bwcluster/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bwc-sim:", err)
		os.Exit(1)
	}
}

// key names one experiment: the selecting flag and its value.
type key struct{ flag, value string }

// opts are the flags every experiment's config is built from.
type opts struct {
	d     sim.Dataset
	scale float64
	seed  int64 // 0: the experiment's default seed
}

// seedOr returns the -seed override, or def when none was given.
func (o opts) seedOr(def int64) int64 {
	if o.seed != 0 {
		return o.seed
	}
	return def
}

// result is an experiment's outcome: it renders as text through Blocks
// and is emitted unchanged under -json.
type result interface{ Blocks() sim.Series }

// experiments maps every -fig, -ablation and -series value to the code
// that builds its config from the flags and runs it.
var experiments = map[key]func(opts) (result, error){
	{"fig", "3"}: func(o opts) (result, error) {
		cfg := sim.DefaultAccuracyConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunAccuracy(cfg)
	},
	{"fig", "4"}: func(o opts) (result, error) {
		cfg := sim.DefaultTradeoffConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunTradeoff(cfg)
	},
	{"fig", "5"}: func(o opts) (result, error) {
		cfg := sim.DefaultTreenessConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunTreeness(cfg)
	},
	{"fig", "6"}: func(o opts) (result, error) {
		cfg := sim.DefaultScalabilityConfig().Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunScalability(cfg)
	},
	{"ablation", "ncut"}: func(o opts) (result, error) {
		cfg := sim.DefaultTradeoffConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunNCutAblation(cfg, []int{5, 10, 20})
	},
	{"ablation", "trees"}: func(o opts) (result, error) {
		cfg := sim.DefaultAccuracyConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunTreesAblation(cfg, []int{1, 3, 5})
	},
	{"ablation", "drift"}: func(o opts) (result, error) {
		cfg := sim.DefaultDynamicsConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunDynamics(cfg)
	},
	{"ablation", "construction"}: func(o opts) (result, error) {
		cfg := sim.DefaultConstructionConfig().Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunConstructionCost(cfg)
	},
	{"ablation", "sword"}: func(o opts) (result, error) {
		cfg := sim.DefaultSwordConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunSwordComparison(cfg)
	},
	{"series", "faults"}: func(o opts) (result, error) {
		cfg := sim.DefaultFaultsConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunFaults(cfg)
	},
	{"series", "trace"}: func(o opts) (result, error) {
		cfg := sim.DefaultTraceSeriesConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		// Attach the process recorder so -flight-dump captures the
		// series' black box (hops, staleness episodes, anomalies).
		cfg.Flight = telemetry.FlightDefault()
		return sim.RunTraceSeries(cfg)
	},
	{"series", "churn"}: func(o opts) (result, error) {
		cfg := sim.DefaultChurnConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunChurn(cfg)
	},
	{"series", "bandwidth"}: func(o opts) (result, error) {
		cfg := sim.DefaultBandwidthConfig(o.d).Scaled(o.scale)
		cfg.Seed = o.seedOr(cfg.Seed)
		return sim.RunBandwidth(cfg)
	},
}

func run(args []string) error {
	fs := flag.NewFlagSet("bwc-sim", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate: 3, 4, 5 or 6")
	ablation := fs.String("ablation", "", "ablation to run instead of a figure: ncut, trees, drift, construction or sword")
	series := fs.String("series", "", "extra experiment series to run instead of a figure: faults, trace, churn or bandwidth")
	ds := fs.String("dataset", "hp", "dataset: hp or umd (figures 3-5)")
	scale := fs.Float64("scale", 1, "work scale factor (rounds/queries multiplied by this; positive and finite)")
	seed := fs.Int64("seed", 0, "override the experiment seed (0: per-figure default)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON instead of a table")
	metricsOut := fs.String("metrics", "", "dump telemetry metrics after the run to this file (\"-\": stderr)")
	flightOut := fs.String("flight-dump", "", "dump the flight-recorder ring after the run to this file (\"-\": stderr)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fmt.Errorf("-scale must be positive and finite, got %v", *scale)
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
	k, unknown := key{"fig", strconv.Itoa(*fig)}, errors.New("-fig must be 3, 4, 5 or 6 (or use -ablation / -series)")
	switch {
	case *ablation != "":
		k, unknown = key{"ablation", *ablation}, fmt.Errorf("unknown ablation %q (want ncut, trees, drift, construction or sword)", *ablation)
	case *series != "":
		k, unknown = key{"series", *series}, fmt.Errorf("unknown series %q (want faults, trace, churn or bandwidth)", *series)
	}
	exp, ok := experiments[k]
	if !ok {
		return unknown
	}
	start := time.Now()
	res, err := exp(opts{d: d, scale: *scale, seed: *seed})
	if err != nil {
		return err
	}
	if *jsonOut {
		err = emitJSON(res)
	} else {
		err = res.Blocks().Render(os.Stdout)
		// Wall-clock time goes to stderr so stdout is a pure function of
		// the flags and seed, byte-comparable against results/.
		fmt.Fprintf(os.Stderr, "# completed in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := dump(*metricsOut, "metrics", telemetry.Default().WritePrometheus); err != nil {
			return err
		}
	}
	if *flightOut != "" {
		return dump(*flightOut, "flight", func(w io.Writer) error {
			_, err := telemetry.FlightDefault().WriteTo(w)
			return err
		})
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

// dump writes one post-run report to path ("-": stderr), so batch runs
// leave the same observability trail bwc-serve exposes: the telemetry
// registry in Prometheus text format (-metrics, as on /metrics), or the
// flight recorder's retained events (-flight-dump, as on /v1/flight;
// runs that attach the recorder, -series trace, leave the overlay's
// recent sends, hops, staleness episodes and anomalies there).
func dump(path, what string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s dump: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s dump: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s dump: %w", what, err)
	}
	return nil
}
