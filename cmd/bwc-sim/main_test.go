package main

import (
	"cmp"
	"slices"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -fig should fail")
	}
	if err := run([]string{"-fig", "9"}); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := run([]string{"-fig", "3", "-dataset", "nope"}); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	// A non-positive or non-finite -scale is rejected before anything
	// runs, instead of collapsing to a one-round run.
	for _, scale := range []string{"0", "-3", "NaN", "Inf", "-Inf"} {
		if err := run([]string{"-ablation", "construction", "-scale", scale}); err == nil {
			t.Errorf("-scale %s should fail", scale)
		}
	}
}

func TestRunAblationsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-ablation", "ncut", "-scale", "0.01"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ablation", "trees", "-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ablation", "drift", "-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ablation", "construction", "-scale", "0.2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ablation", "nope"}); err == nil {
		t.Error("unknown ablation should fail")
	}
}

func TestRunSeriesFaultsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-series", "faults", "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-series", "nope"}); err == nil {
		t.Error("unknown series should fail")
	}
}

func TestRunFig3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-fig", "3", "-dataset", "hp", "-scale", "0.02", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig4Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-fig", "4", "-dataset", "hp", "-scale", "0.01"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig5Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-fig", "5", "-dataset", "hp", "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	if err := run([]string{"-fig", "6", "-scale", "0.01"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunEveryExperimentTiny runs every -fig, -ablation and -series
// value on both datasets at a tiny scale, once at the experiment's own
// seed and once at a -seed override. The runners fill in no defaults,
// so this is what shows that every DefaultXConfig the table builds from
// is complete.
func TestRunEveryExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	keys := make([]key, 0, len(experiments))
	for k := range experiments {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.flag, b.flag), cmp.Compare(a.value, b.value))
	})
	for _, k := range keys {
		for _, c := range []struct{ ds, seed string }{{"hp", "0"}, {"umd", "5"}} {
			t.Run(k.flag+"="+k.value+"/"+c.ds, func(t *testing.T) {
				if err := run([]string{"-" + k.flag, k.value, "-dataset", c.ds, "-seed", c.seed, "-scale", "0.01"}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
