// Command perfbench is the repository's end-to-end benchmark. It runs in
// one process over a fixed pool of 512-host HP-like bandwidth matrices
// from dataset.Generate, draws its queries from --seed, checks every
// answer, and prints one JSON object as the last line of standard output:
//
//	bash perfbench/run.sh --workload central --seed 1 --seconds 10 --trace 0
//
// Every workload is a closed loop with one caller (and, for fleet, one
// client connection) under the default GOMAXPROCS:
//
//   - central: System.FindCluster with k uniform in 2..16 and b drawn
//     continuously between the 10th and 90th percentile of measured
//     bandwidth. Almost every (k, b) is new, so the Algorithm 1 scan and
//     the memo insert do the work and the overlay does none.
//   - decentral: System.Query (Algorithm 4 over the converged synchronous
//     overlay) from seeded start hosts with b on the bandwidth-class
//     grid. Overlay routing and local searches do the work and the
//     cluster index does none, so an index change should leave it alone.
//
// The serving tier (fleet) is measured by the traced run only. A builder
// shard installs the system and streams it to one replica over a channel
// transport; each shard sits behind a loopback HTTP server and a
// fleet.Router fronts both. Requests are zipf-drawn from a key universe
// three times the router cache, 10 % of them decentralized and routed to
// the owner shard's AsyncRuntime. Its end-to-end figures spread too
// widely between runs on a shared 2-vCPU VM for a regression bound, so it
// is not an end-to-end workload.
//
// With --trace 0 the result carries the six end-to-end metrics of the
// chosen workload. Each decentral query's latency is capped at the
// process's CPU time over it, which leaves out time the host took the
// vCPUs away (see onCPU). With --trace 1 the run executes the traced pass of central,
// decentral and fleet, whichever workload is named, and prints every
// per-layer metric. Layer numbers are measured from outside the program
// only: by timing the benchmark's own calls into each module's public
// functions, by spans the benchmark's own HTTP wrappers record, and by
// diffing the telemetry.Default() counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// workloads maps a workload name to its untraced run.
var workloads = map[string]func([]*inputs, time.Duration) (*report, error){
	"central":   runCentral,
	"decentral": runDecentral,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: central or decentral")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured query phase, in seconds")
	trace := fs.Int("trace", 0, "1: traced run of every workload, printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload central|decentral, --seconds >= 1, --trace 0|1")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second

	base := runtime.NumGoroutine()
	pool, err := newPool(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(pool[0], dur)
	} else {
		rep, err = runWorkload(pool, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := waitGoroutines(base); err != nil {
		rep.problem("%v", err)
	}
	rep.facts["workload"] = *workload
	rep.facts["seed"] = *seed
	rep.facts["n"] = hostCount
	rep.facts["matrices"] = len(pool)
	rep.facts["fleet_tick_ms"] = fleetTick.Seconds() * 1e3
	rep.facts["seconds"] = *seconds
	rep.facts["trace"] = *trace
	rep.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.facts["nproc"] = runtime.NumCPU()
	rep.facts["go"] = runtime.Version()
	return rep.print(stdout)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints: the ops it attempted and failed (a
// wrong answer counts as failed), its metrics, the run facts that make
// the numbers interpretable, and any run-level check that failed.
type report struct {
	attempted, failed int64
	metrics           map[string]metricValue
	facts             map[string]any
	problems          []string
}

func newReport() *report {
	return &report{metrics: map[string]metricValue{}, facts: map[string]any{}}
}

func (r *report) metric(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fail counts n failed ops and records why.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problem(format, args...)
}

// print writes the facts line and the result line, returning the exit
// code: 0 only for a correct run.
func (r *report) print(w io.Writer) int {
	if r.attempted < 1 {
		r.problem("no operation was attempted")
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s is not a finite number", name)
			r.metrics[name] = metricValue{Unit: m.Unit}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	correct := r.failed == 0 && len(r.problems) == 0
	facts, err := json.Marshal(r.facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode facts:", err)
		return 1
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintf(w, "facts %s\n%s\n", facts, out)
	if !correct {
		return 1
	}
	return 0
}

// waitGoroutines waits for the goroutine count to return to base — every
// goroutine a workload started (runtimes, replicator, probe loop, loopback
// servers, keep-alive connections) must be gone after its teardown. On
// timeout it dumps the survivors to standard error.
func waitGoroutines(base int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			var b strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
			fmt.Fprint(os.Stderr, b.String())
			return fmt.Errorf("%d goroutines still running after teardown, %d before setup", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
