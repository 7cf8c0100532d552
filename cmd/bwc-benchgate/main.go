// Command bwc-benchgate checks the repo's performance invariants
// (DESIGN.md §8g) on the text `go test -bench` prints, read from stdin:
//
//	go test -run '^$' -bench ... -benchmem -count 10 -cpu 1,2,4,8 -benchtime 50ms ./... 2>&1 |
//	    go run ./cmd/bwc-benchgate
//
// Repeated samples of one benchmark are folded into a per-(package,
// name, GOMAXPROCS) cell with mean, stddev and min, and every row of
// the invariants table compares a candidate cell with its reference
// cell. The gate fails closed: a row whose pair is missing at a level
// it is checked at fails, as does any `--- FAIL`, `FAIL` or `panic:`
// line in the input, so a benchmark that broke cannot pass by dropping
// its cells. Nothing is compared against a recorded baseline; every
// invariant is a relation between two cells of the same run.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := gate(os.Stdin, os.Stdout, runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "bwc-benchgate: gate FAILED:", err)
		os.Exit(1)
	}
}

// cell aggregates the repeated samples (-count) of one benchmark at one
// GOMAXPROCS level (-cpu).
type cell struct {
	mean, sd, least float64 // ns/op
}

// cellKey names one cell: the package, the benchmark name without the
// -N procs suffix, and the procs level.
type cellKey struct {
	pkg, name string
	procs     int
}

// invariant is one row of the gate: the candidate benchmark must stand
// in a fixed relation to the reference benchmark of the same package.
type invariant struct {
	pkg, cand, ref string
	// everyLevel checks the row at every procs level of the run; the
	// others are checked at gateProcs only and reported elsewhere.
	everyLevel bool
	rule       string // what holds, for the log
	holds      func(cand, ref cell) bool
}

// invariants is the gate. The floors sit far outside noise on purpose:
//   - the Algorithm 1 index's one-sweep sizing of every S*pq must stay
//     at least 2x cheaper than the all-pairs row scan it replaced (4.8-6x
//     measured at n = 256 on 2 vCPUs), so a sweep that regressed to
//     per-pair scanning trips it;
//   - the parallel forest build must not be slower than its sequential
//     sibling beyond noise at the host's hardware concurrency;
//   - a nil span check must never cost more than live tracing;
//   - incremental forest repair (remove + re-add of one host) must stay
//     at least 10x cheaper than a rebuild — the economics of
//     churn-native membership (DESIGN.md §8h); the real margin is over
//     two orders of magnitude, so tripping it means Remove regressed to
//     rebuild-scale work;
//   - the fleet router's cached query must be at least 5x cheaper than
//     the proxied one, or the zipf head of real traffic gains nothing
//     from the serving tier's cache (DESIGN.md §8j);
//   - the bandwidth ledger costs one RLock and two atomic adds per
//     delivered frame, so the ledger-on query stays within 3% of
//     ledger-off (DESIGN.md §8k).
var invariants = []invariant{
	{"bwcluster/internal/cluster", "BenchmarkIndexBuild/sweep", "BenchmarkIndexBuild/rowscan",
		true, "index sweep >= 2x cheaper than the row scan", cheaperBy(2)},
	{"bwcluster/internal/predtree", "BenchmarkBuildForestParallel/parallel", "BenchmarkBuildForestParallel/sequential",
		false, "parallel not slower than sequential beyond noise", notSlower},
	{"bwcluster/internal/runtime", "BenchmarkQueryTracingOff", "BenchmarkQueryTracingOn",
		true, "tracing-off not slower than tracing-on beyond noise", notSlower},
	{"bwcluster/internal/predtree", "BenchmarkIncrementalRemoveAdd/incremental", "BenchmarkIncrementalRemoveAdd/rebuild",
		true, "incremental repair >= 10x cheaper than rebuild", cheaperBy(10)},
	{"bwcluster/internal/fleet", "BenchmarkFleetQueryCache/cached", "BenchmarkFleetQueryCache/uncached",
		false, "cached query >= 5x cheaper than uncached", cheaperBy(5)},
	{"bwcluster/internal/runtime", "BenchmarkQueryLedgerOn", "BenchmarkQueryLedgerOff",
		false, "ledger-on within 3% of ledger-off", withinBudget(1.03)},
}

func notSlower(c, r cell) bool {
	return !slowerBeyondNoise(c.mean, c.sd, c.least, r.mean, r.sd, r.least)
}

// cheaperBy holds when the reference mean is at least floor times the
// candidate's.
func cheaperBy(floor float64) func(c, r cell) bool {
	return func(c, r cell) bool { return r.mean >= floor*c.mean }
}

// withinBudget holds unless the candidate mean exceeds budget times the
// reference mean AND the min-of-samples confirms it, the same load-spike
// guard as slowerBeyondNoise.
func withinBudget(budget float64) func(c, r cell) bool {
	return func(c, r cell) bool { return c.mean <= budget*r.mean || c.least <= budget*r.least }
}

// gate reads `go test -bench` text from in, writes one line per
// invariant and procs level to out, and returns an error naming every
// violation. hostCPUs is the measuring host's hardware concurrency.
func gate(in io.Reader, out io.Writer, hostCPUs int) error {
	cells, levels, failures, err := parse(in)
	if err != nil {
		return err
	}
	if len(levels) == 0 {
		failures = append(failures, "no benchmark results in the input")
	}
	gp := gateProcs(levels, hostCPUs)
	fmt.Fprintf(out, "gate: host has %d CPUs; procs levels %v; gating single-level invariants at GOMAXPROCS=%d\n",
		hostCPUs, levels, gp)
	for _, inv := range invariants {
		for _, procs := range levels {
			checked := inv.everyLevel || procs == gp
			c, okC := cells[cellKey{inv.pkg, inv.cand, procs}]
			r, okR := cells[cellKey{inv.pkg, inv.ref, procs}]
			if !okC || !okR {
				if checked {
					failures = append(failures, fmt.Sprintf("%s vs %s [%s] missing at %d procs",
						inv.cand, inv.ref, inv.pkg, procs))
				}
				continue
			}
			status := "not gated"
			if checked {
				status = "ok"
				if !inv.holds(c, r) {
					status = "FAIL"
					failures = append(failures, fmt.Sprintf(
						"%s at %d procs: %.0fns/op (min %.0f) vs %s %.0fns/op (min %.0f) breaks %q",
						inv.cand, procs, c.mean, c.least, inv.ref, r.mean, r.least, inv.rule))
				}
			}
			fmt.Fprintf(out, "  %-45s procs=%d speedup=%.2fx (%.3gms vs %.3gms) %s: %s\n",
				inv.cand, procs, r.mean/c.mean, c.mean/1e6, r.mean/1e6, inv.rule, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d invariant violation(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(out, "gate: PASS")
	return nil
}

// parse folds the benchmark lines of in into cells and returns them with
// the sorted procs levels seen and one failure per line reporting a
// failed or panicking test binary.
func parse(in io.Reader) (cells map[cellKey]cell, levels []int, failures []string, err error) {
	samples := map[cellKey][]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "--- FAIL"), strings.HasPrefix(line, "FAIL"), strings.HasPrefix(line, "panic:"):
			failures = append(failures, "benchmark run failed: "+line)
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, ns, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			base, procs := splitProcs(name)
			k := cellKey{pkg, base, procs}
			samples[k] = append(samples[k], ns)
			if !slices.Contains(levels, procs) {
				levels = append(levels, procs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("read: %w", err)
	}
	slices.Sort(levels)
	cells = make(map[cellKey]cell, len(samples))
	for k, ns := range samples {
		mean, sd, least := stats(ns)
		cells[k] = cell{mean: mean, sd: sd, least: least}
	}
	return cells, levels, failures, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   1234   987654 ns/op   120 B/op   3 allocs/op
//
// into its name and ns/op; the -benchmem columns are ignored. Lines
// that do not match (e.g. "BenchmarkFoo" printed alone before its
// result) are skipped.
func parseBenchLine(line string) (name string, nsPerOp float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return "", 0, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", 0, false
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return "", 0, false
	}
	return f[0], ns, true
}

// splitProcs strips the trailing -N GOMAXPROCS suffix `go test` appends
// to benchmark names (absent at GOMAXPROCS=1).
func splitProcs(name string) (base string, procs int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

// stats returns the mean, sample standard deviation and minimum of xs.
func stats(xs []float64) (mean, stddev, min float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min = xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0, min
	}
	for _, x := range xs {
		stddev += (x - mean) * (x - mean)
	}
	stddev = math.Sqrt(stddev / float64(len(xs)-1))
	return mean, stddev, min
}

// noiseBound returns the slack allowed before "a slower than b" counts as
// a real regression: two standard deviations of the difference of the
// means (the stddevs are independent, so they add in quadrature), with a
// 5% relative floor so single-digit-nanosecond cells and near-identical
// times cannot flake the gate.
func noiseBound(refMean, sdA, sdB float64) float64 {
	noise := 2 * math.Sqrt(sdA*sdA+sdB*sdB)
	if floor := 0.05 * refMean; noise < floor {
		noise = floor
	}
	return noise
}

// slowerBeyondNoise reports whether candidate is slower than reference
// beyond noise. The primary test is on means (candidate mean above the
// reference mean + 2·stddev bound); it must be CONFIRMED by the
// min-of-samples exceeding the reference min by >10%, because on a
// shared/1-CPU host background load inflates means and stddevs of
// microsecond-scale cells in whichever sub-benchmark it happens to land
// on, while the min of 10 samples is robust to such spikes — a real
// slowdown (code doing more work) shifts the min too.
func slowerBeyondNoise(candMean, candSd, candMin, refMean, refSd, refMin float64) bool {
	if candMean <= refMean+noiseBound(refMean, refSd, candSd) {
		return false
	}
	return candMin > refMin*1.10
}

// gateProcs picks the GOMAXPROCS level at which the single-level
// invariants are enforced: the largest level that does not exceed the
// measuring host's hardware concurrency. On a 4-vCPU CI runner that is
// the 4-proc column; on a 1-CPU dev container it is the 1-proc column,
// where the parallel entry points degrade to the sequential path and
// the parallel invariant trivially holds — oversubscribed columns
// (procs > hardware CPUs) measure scheduler thrash, not the algorithm,
// and are reported but not gated.
func gateProcs(levels []int, hostCPUs int) int {
	best := 0
	for _, l := range levels {
		if l <= hostCPUs && l > best {
			best = l
		}
	}
	if best == 0 { // every level oversubscribes; gate the smallest
		for _, l := range levels {
			if best == 0 || l < best {
				best = l
			}
		}
	}
	return best
}
