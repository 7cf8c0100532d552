package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fixtureCell is one (package, benchmark, procs) cell of a synthetic
// `go test -bench -count 2 -cpu 1,4` run, one ns/op value per sample.
type fixtureCell struct {
	pkg, name string
	procs     int
	ns        []float64
}

// healthyMatrix is a run where every invariant holds with margin: the
// parallel builds scale at 4 procs (and pay a little overhead at 1),
// tracing-off is cheaper than on, repair is ~250x cheaper than rebuild,
// the cache ~8x cheaper than the proxy and the ledger ~1% over off.
func healthyMatrix() []fixtureCell {
	var cells []fixtureCell
	for _, procs := range []int{1, 4} {
		par := []float64{1050000, 1070000}
		if procs == 4 {
			par = []float64{400000, 420000}
		}
		cells = append(cells,
			fixtureCell{"bwcluster/internal/cluster", "BenchmarkIndexBuildParallel/sequential", procs, []float64{1000000, 1020000}},
			fixtureCell{"bwcluster/internal/cluster", "BenchmarkIndexBuildParallel/parallel", procs, par},
			fixtureCell{"bwcluster/internal/predtree", "BenchmarkBuildForestParallel/sequential", procs, []float64{1000000, 1020000}},
			fixtureCell{"bwcluster/internal/predtree", "BenchmarkBuildForestParallel/parallel", procs, par},
			fixtureCell{"bwcluster/internal/predtree", "BenchmarkIncrementalRemoveAdd/incremental", procs, []float64{22000, 23000}},
			fixtureCell{"bwcluster/internal/predtree", "BenchmarkIncrementalRemoveAdd/rebuild", procs, []float64{5400000, 5500000}},
			fixtureCell{"bwcluster/internal/runtime", "BenchmarkQueryTracingOff", procs, []float64{500000, 510000}},
			fixtureCell{"bwcluster/internal/runtime", "BenchmarkQueryTracingOn", procs, []float64{600000, 590000}},
			fixtureCell{"bwcluster/internal/runtime", "BenchmarkQueryLedgerOff", procs, []float64{100000, 101000}},
			fixtureCell{"bwcluster/internal/runtime", "BenchmarkQueryLedgerOn", procs, []float64{101000, 102000}},
			fixtureCell{"bwcluster/internal/fleet", "BenchmarkFleetQueryCache/uncached", procs, []float64{80000, 82000}},
			fixtureCell{"bwcluster/internal/fleet", "BenchmarkFleetQueryCache/cached", procs, []float64{10000, 10500}},
		)
	}
	return cells
}

// setCell replaces the samples of the cell named name at procs.
func setCell(cells []fixtureCell, name string, procs int, ns ...float64) {
	for i := range cells {
		if cells[i].name == name && cells[i].procs == procs {
			cells[i].ns = ns
		}
	}
}

// render prints cells the way `go test -bench` does: a pkg header per
// package, samples interleaved by count, a -N suffix above 1 proc.
func render(cells []fixtureCell) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\n")
	pkg := ""
	for _, c := range cells {
		if c.pkg != pkg {
			if pkg != "" {
				fmt.Fprintf(&b, "PASS\nok  \t%s\t1.234s\n", pkg)
			}
			pkg = c.pkg
			fmt.Fprintf(&b, "pkg: %s\ncpu: Imaginary CPU @ 3.00GHz\n", pkg)
		}
		name := c.name
		if c.procs > 1 {
			name = fmt.Sprintf("%s-%d", name, c.procs)
		}
		for _, ns := range c.ns {
			fmt.Fprintf(&b, "%-50s\t     100\t%10.0f ns/op\t     120 B/op\t       3 allocs/op\n", name, ns)
		}
	}
	fmt.Fprintf(&b, "PASS\nok  \t%s\t1.234s\n", pkg)
	return b.String()
}

// runGate gates the rendered cells as if measured on a hostCPUs host.
func runGate(cells []fixtureCell, hostCPUs int) (string, error) {
	var out strings.Builder
	err := gate(strings.NewReader(render(cells)), &out, hostCPUs)
	return out.String(), err
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		base  string
		procs int
	}{
		{"BenchmarkFoo-8", "BenchmarkFoo", 8},
		{"BenchmarkFoo", "BenchmarkFoo", 1},
		{"BenchmarkFoo/sequential-4", "BenchmarkFoo/sequential", 4},
		{"BenchmarkFoo/sub-case", "BenchmarkFoo/sub-case", 1},
	} {
		base, procs := splitProcs(tc.in)
		if base != tc.base || procs != tc.procs {
			t.Errorf("splitProcs(%q) = (%q, %d), want (%q, %d)", tc.in, base, procs, tc.base, tc.procs)
		}
	}
}

func TestParseBenchLineRejectsPartialLines(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFoo",
		"BenchmarkFoo-8",
		"BenchmarkFoo-8   x   100 ns/op",
		"BenchmarkFoo-8   100   y ns/op",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted", line)
		}
	}
}

// TestAggregate: repeated samples fold into one cell per (package,
// name, procs), with the sample mean, stddev and min.
func TestAggregate(t *testing.T) {
	cells, levels, failures, err := parse(strings.NewReader(render(healthyMatrix())))
	if err != nil || len(failures) > 0 {
		t.Fatalf("parse: err=%v failures=%v", err, failures)
	}
	if len(levels) != 2 || levels[0] != 1 || levels[1] != 4 {
		t.Errorf("levels = %v, want [1 4]", levels)
	}
	if len(cells) != 24 {
		t.Fatalf("got %d cells, want 24 (12 benchmarks x 2 procs levels)", len(cells))
	}
	c, ok := cells[cellKey{"bwcluster/internal/cluster", "BenchmarkIndexBuildParallel/sequential", 1}]
	if !ok {
		t.Fatalf("sequential cell at procs 1 missing: %v", cells)
	}
	if math.Abs(c.mean-1010000) > 1 {
		t.Errorf("mean = %v, want 1010000", c.mean)
	}
	// sample stddev of {1000000, 1020000} = 14142.1...
	if math.Abs(c.sd-14142.135) > 1 {
		t.Errorf("stddev = %v, want ~14142", c.sd)
	}
	if c.least != 1000000 {
		t.Errorf("min = %v, want 1000000", c.least)
	}
	// Same name, other package: a separate cell.
	if _, ok := cells[cellKey{"bwcluster/internal/predtree", "BenchmarkIndexBuildParallel/sequential", 1}]; ok {
		t.Error("cells leaked across packages")
	}
}

func TestGatePassesOnHealthyMatrix(t *testing.T) {
	out, err := runGate(healthyMatrix(), 4) // pretend a 4-CPU runner measured this
	if err != nil {
		t.Fatalf("gate failed on healthy matrix: %v\n%s", err, out)
	}
	if !strings.Contains(out, "GOMAXPROCS=4") {
		t.Errorf("gate should enforce at 4 procs on a 4-CPU host:\n%s", out)
	}
	// The scaling curve stays in the log at every level.
	for _, want := range []string{"procs=1 speedup=0.95x", "procs=4 speedup=2.46x"} {
		if !strings.Contains(out, want) {
			t.Errorf("gate output lacks %q:\n%s", want, out)
		}
	}
}

func TestGateFailsWhenParallelSlowBeyondNoise(t *testing.T) {
	cells := healthyMatrix()
	// Parallel 2x slower than sequential, far beyond noise, and the min
	// shifted with it (a real slowdown, not a load spike).
	setCell(cells, "BenchmarkIndexBuildParallel/parallel", 4, 2000000, 2040000)
	out, err := runGate(cells, 4)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkIndexBuildParallel/parallel at 4 procs") {
		t.Fatalf("gate should fail on parallel regression, got err=%v\n%s", err, out)
	}
}

func TestGateFailsWhenTracingOffSlowerThanOn(t *testing.T) {
	cells := healthyMatrix()
	setCell(cells, "BenchmarkQueryTracingOff", 4, 2e6, 2e6) // way above tracing-on's ~595µs
	_, err := runGate(cells, 4)
	if err == nil || !strings.Contains(err.Error(), "tracing-off not slower") {
		t.Fatalf("gate should fail when tracing-off is slower, got err=%v", err)
	}
}

// TestGateFailsWhenRepairUnder10x: inflating the incremental repair cell
// to within 10x of the rebuild cell must trip the repair invariant.
func TestGateFailsWhenRepairUnder10x(t *testing.T) {
	cells := healthyMatrix()
	setCell(cells, "BenchmarkIncrementalRemoveAdd/incremental", 4, 1e6, 1e6) // rebuild is ~5.45e6: only 5.45x
	_, err := runGate(cells, 4)
	if err == nil || !strings.Contains(err.Error(), "cheaper than rebuild") {
		t.Fatalf("gate should fail when repair margin drops below 10x, got err=%v", err)
	}
}

// TestGateFailsWhenCacheUnder5x: inflating the cached serving cell to
// within 5x of the uncached one must trip the cache invariant — a cache
// that saves less than that is pure overhead on the zipf head.
func TestGateFailsWhenCacheUnder5x(t *testing.T) {
	cells := healthyMatrix()
	setCell(cells, "BenchmarkFleetQueryCache/cached", 4, 30000, 30000) // uncached is ~81000: only 2.7x
	_, err := runGate(cells, 4)
	if err == nil || !strings.Contains(err.Error(), "cheaper than uncached") {
		t.Fatalf("gate should fail when the cache margin drops below 5x, got err=%v", err)
	}
}

// TestGateFailsWhenLedgerOver3Percent: ledger-on 10% over ledger-off,
// with the min shifted too, breaks the ledger's 3% budget.
func TestGateFailsWhenLedgerOver3Percent(t *testing.T) {
	cells := healthyMatrix()
	setCell(cells, "BenchmarkQueryLedgerOn", 4, 110000, 111100)
	_, err := runGate(cells, 4)
	if err == nil || !strings.Contains(err.Error(), "ledger-on within 3%") {
		t.Fatalf("gate should fail when ledger-on is 10%% over off, got err=%v", err)
	}
}

func TestGateToleratesLoadSpikeOnMean(t *testing.T) {
	cells := healthyMatrix()
	// Background load landed on the parallel sub-benchmark: the mean
	// blew past the noise bound but the min is untouched. The gate must
	// not flake on this.
	setCell(cells, "BenchmarkIndexBuildParallel/parallel", 4, 400000, 5600000)
	// Same for the ledger's 3% budget.
	setCell(cells, "BenchmarkQueryLedgerOn", 4, 100000, 130000)
	if out, err := runGate(cells, 4); err != nil {
		t.Fatalf("gate must be robust to mean-only spikes: %v\n%s", err, out)
	}
}

func TestGateOnOneCPUHostGatesAtProcsOne(t *testing.T) {
	cells := healthyMatrix()
	// Wreck the 4-proc column of every single-level invariant:
	// oversubscribed columns are reported, not gated, so this must still
	// pass on a 1-CPU host.
	setCell(cells, "BenchmarkIndexBuildParallel/parallel", 4, 1e7, 1e7)
	setCell(cells, "BenchmarkFleetQueryCache/cached", 4, 80000, 80000)
	setCell(cells, "BenchmarkQueryLedgerOn", 4, 200000, 200000)
	out, err := runGate(cells, 1)
	if err != nil {
		t.Fatalf("1-CPU gate should only enforce procs=1: %v\n%s", err, out)
	}
	if !strings.Contains(out, "GOMAXPROCS=1") || !strings.Contains(out, "not gated") {
		t.Errorf("1-CPU gate should report the 4-proc column without gating it:\n%s", out)
	}
}

// TestGateFailsWhenPairMissing: the gate fails closed — every row's pair
// must be present at each level the row is checked at.
func TestGateFailsWhenPairMissing(t *testing.T) {
	drop := func(cells []fixtureCell, name string, procs int) []fixtureCell {
		var kept []fixtureCell
		for _, c := range cells {
			if c.name != name || c.procs != procs {
				kept = append(kept, c)
			}
		}
		return kept
	}
	for _, inv := range invariants {
		t.Run(inv.cand, func(t *testing.T) {
			_, err := runGate(drop(healthyMatrix(), inv.cand, 4), 4)
			if err == nil || !strings.Contains(err.Error(), inv.cand+" vs "+inv.ref) {
				t.Fatalf("gate should fail when %s is missing, got err=%v", inv.cand, err)
			}
		})
	}
	t.Run("every-level row missing off the gate level", func(t *testing.T) {
		_, err := runGate(drop(healthyMatrix(), "BenchmarkQueryTracingOn", 1), 4)
		if err == nil || !strings.Contains(err.Error(), "missing at 1 procs") {
			t.Fatalf("gate should fail when tracing-on is missing at procs 1, got err=%v", err)
		}
	})
	t.Run("empty input", func(t *testing.T) {
		var out strings.Builder
		if err := gate(strings.NewReader(""), &out, 4); err == nil {
			t.Fatalf("gate passed on empty input:\n%s", out.String())
		}
	})
}

// TestGateFailsOnFailedBenchmark: a failing or panicking benchmark
// binary fails the gate even when every pair is present.
func TestGateFailsOnFailedBenchmark(t *testing.T) {
	for _, line := range []string{
		"--- FAIL: BenchmarkFleetQueryCache/cached",
		"    --- FAIL: BenchmarkQueryLedgerOn",
		"FAIL\tbwcluster/internal/fleet\t3.210s",
		"panic: runtime error: index out of range [3] with length 3",
	} {
		var out strings.Builder
		err := gate(strings.NewReader(render(healthyMatrix())+line+"\n"), &out, 4)
		if err == nil || !strings.Contains(err.Error(), strings.TrimSpace(line)) {
			t.Errorf("gate should fail on %q, got err=%v", line, err)
		}
	}
}

func TestNoiseBoundFloor(t *testing.T) {
	// Tiny stddevs: the 5% relative floor dominates.
	if got := noiseBound(1000, 1, 1); math.Abs(got-50) > 1e-9 {
		t.Errorf("floored noise = %v, want 50", got)
	}
	// Large stddevs add in quadrature.
	if got := noiseBound(1000, 300, 400); math.Abs(got-1000) > 1e-9 {
		t.Errorf("noise = %v, want 2*sqrt(300^2+400^2) = 1000", got)
	}
}
