package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Percentiles are in basis points (9900 = p99) so the tail rule below is
// exact integer arithmetic.
const (
	p50 = 5000
	p99 = 9900

	// minTail is how many samples must lie beyond a reported percentile.
	minTail = 10
)

// percentileLadder lists the percentiles a run may justify, highest
// first.
var percentileLadder = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// highestPercentile returns the highest percentile on the ladder with at
// least minTail of n samples beyond it; ok is false when not even the
// median has that many.
func highestPercentile(n int) (bp int, ok bool) {
	for _, bp := range percentileLadder {
		if n*(10000-bp) >= minTail*10000 {
			return bp, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile bp of sorted samples,
// refusing one with fewer than minTail samples beyond it (so p99 needs at
// least 1000 samples).
func percentile(sorted []int64, bp int) (int64, error) {
	n := len(sorted)
	if n*(10000-bp) < minTail*10000 {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", float64(bp)/100, n, minTail)
	}
	idx := (n*bp+9999)/10000 - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], nil
}

// latencySummary is the caller-side view of one query phase.
type latencySummary struct {
	n        int
	p50, p99 float64 // µs
	tail     int     // highest percentile the sample count justifies, bp
	slow     float64 // share of ops slower than 10x the median
}

// summarize reduces per-op latencies (ns) to the reported percentiles.
func summarize(lat []int64) (latencySummary, error) {
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	s := latencySummary{n: len(sorted)}
	m, err := percentile(sorted, p50)
	if err != nil {
		return s, err
	}
	t, err := percentile(sorted, p99)
	if err != nil {
		return s, err
	}
	s.p50, s.p99 = float64(m)/1e3, float64(t)/1e3
	s.tail, _ = highestPercentile(len(sorted))
	slowFrom, _ := slices.BinarySearch(sorted, 10*m+1)
	s.slow = float64(len(sorted)-slowFrom) / float64(len(sorted))
	return s, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime returns the CPU time, user plus system, of all the process's
// threads. A read costs about 0.35 µs on the 2-vCPU VM, cheap enough to
// take after every op.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// procNames are the Go runtime counters a phase diffs.
var procNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// procSample is a point-in-time reading of wall clock, process CPU and
// the Go runtime's GC and allocation counters.
type procSample struct {
	at              time.Time
	cpu             time.Duration
	gcCPU, busyCPU  float64
	allocs, alloced uint64
}

func sampleProc() procSample {
	s := make([]metrics.Sample, len(procNames))
	for i, name := range procNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return procSample{
		at:      time.Now(),
		cpu:     cpuTime(),
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		allocs:  s[3].Value.Uint64(),
		alloced: s[4].Value.Uint64(),
	}
}

// usage is what a phase consumed between two samples.
type usage struct {
	wall, cpu          time.Duration
	gcCPU, busyCPU     float64 // seconds the runtime spent in GC, and busy at all
	allocs, allocBytes float64
}

func (a procSample) until(b procSample) usage {
	return usage{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		gcCPU:      b.gcCPU - a.gcCPU,
		busyCPU:    b.busyCPU - a.busyCPU,
		allocs:     float64(b.allocs - a.allocs),
		allocBytes: float64(b.alloced - a.alloced),
	}
}

// gcFraction is the share of the runtime's busy CPU spent in GC.
func (u usage) gcFraction() float64 {
	if u.busyCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.busyCPU
}

// phase is one measured closed-loop query phase. Per op, in issue order,
// it holds the start offset and latency, and the wall time of the op's
// slot: from the end of the block's previous op (or the block's start) to
// its own end, so the slots of a block tile it; in a capped phase also the
// process's CPU time over the slot. It also
// holds the probe timed after each block, whether the phase ended because
// its inputs ran out, and what the whole phase consumed. All times are in
// ns.
type phase struct {
	start, lat []int64
	slot, cpu  []int64
	probes     []time.Duration
	exhausted  bool
	use        usage
}

// The host's CPU speed for identical work moved by up to half between
// runs minutes apart on the shared 2-vCPU VM the benchmark was built on
// (neighbours on sibling hyperthreads and caches; steal, which the probe's
// median dodges, is capped per op, see onCPU), more than any bound a
// regression check could use. Every time figure of a run is therefore
// scaled to a reference speed: after each block the run times a
// fixed task the program has no part in (sorting probeKeys) and multiplies
// its times by probeRef over the median probe. The probe runs on the
// caller's goroutine between blocks; during the central and decentral
// phases the program runs no goroutine of its own, so only the Go
// runtime's background GC shares the host with it, and the median keeps
// a probe that lands on a collection from moving the factor. The
// unscaled figures stay in the facts.
const probeRef = 250 * time.Microsecond

// probeKeys is the probe's fixed task: sorting these keys.
var probeKeys = func() []uint64 {
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<12)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	return keys
}()

// probe times one sort of probeKeys.
func probe(work []uint64) time.Duration {
	copy(work, probeKeys)
	t0 := time.Now()
	slices.Sort(work)
	return time.Since(t0)
}

// speed returns probeRef over the median of probes: the factor that scales
// a time measured alongside them to the reference speed.
func speed(probes []time.Duration) float64 {
	xs := make([]float64, len(probes))
	for i, p := range probes {
		xs[i] = float64(p)
	}
	return float64(probeRef) / median(xs)
}

// blockOps is how many consecutive ops one system gets before the caller
// times the probe and moves on to the next system.
const blockOps = 1000

// perSystemInputs is how many queries to generate for each of systems for
// a phase of length dur at rate queries per second over all of them,
// rounded up to whole blocks.
func perSystemInputs(dur time.Duration, rate, systems int) int {
	blocks := int(math.Ceil(dur.Seconds() * float64(rate) / float64(systems*blockOps)))
	return max(blocks, 1) * blockOps
}

// cycle runs a closed loop over systems in rounds. A round gives every
// system, in turn, a block of blockOps ops and times the probe after each
// block, so every system gets the same number of ops however cheap its
// queries are and every run measures the same mix. Rounds start until dur
// has elapsed, so the phase overruns dur by at most one round, or until
// the systems' perSystem inputs would not last another round: a phase
// that ends that way is reported, not failed, since it only means the
// code outran the rate its inputs were sized for. do(m, i, traced) issues
// system m's i-th op. With spans non-nil every other op of a system is
// traced, and cycle records its span at layer. With capped, cycle also
// reads the process's CPU clock after every op, for onCPU. The read costs
// about 0.35 µs, nothing beside decentral's queries, but on central's
// parallel scans of about 15 µs it slowed the calls themselves by 10-15 %,
// so central is not capped.
//
// The per-op records are allocated up front and a collection runs before
// timing starts, so the benchmark allocates nothing of its own during the
// phase and every run starts it from the same collector state, rather
// than from whatever garbage set-up left.
func cycle(rep *report, systems, perSystem int, dur time.Duration, spans *spanLog, layer uint8, capped bool, do func(m, i int, traced bool)) *phase {
	ops := systems * perSystem
	ph := &phase{start: make([]int64, 0, ops), lat: make([]int64, 0, ops), slot: make([]int64, 0, ops)}
	if capped {
		ph.cpu = make([]int64, 0, ops)
	}
	work := make([]uint64, len(probeKeys))
	runtime.GC()
	before := sampleProc()
	origin := before.at
	deadline := origin.Add(dur)
	for round := 0; time.Now().Before(deadline); round++ {
		if (round+1)*blockOps > perSystem {
			ph.exhausted = true
			break
		}
		for m := 0; m < systems; m++ {
			var prevCPU time.Duration
			if capped {
				prevCPU = cpuTime()
			}
			prevEnd := time.Now()
			for i := round * blockOps; i < (round+1)*blockOps; i++ {
				traced := spans != nil && i%2 == 0
				t0 := time.Now()
				do(m, i, traced)
				t1 := time.Now()
				if capped {
					c1 := cpuTime()
					ph.cpu = append(ph.cpu, (c1 - prevCPU).Nanoseconds())
					prevCPU = c1
				}
				ph.start = append(ph.start, t0.Sub(origin).Nanoseconds())
				ph.lat = append(ph.lat, t1.Sub(t0).Nanoseconds())
				ph.slot = append(ph.slot, t1.Sub(prevEnd).Nanoseconds())
				prevEnd = t1
				if traced {
					spans.record(int32(i), layer, t0, t1)
				}
			}
			ph.probes = append(ph.probes, probe(work))
		}
	}
	ph.use = before.until(sampleProc())
	rep.attempted += int64(len(ph.lat))
	return ph
}

// onCPU returns each op's latency capped at the process's CPU time over
// its slot, and the time the caller spent in blocks, both as measured
// (wall) and with each slot capped the same way (busy); an uncapped phase
// keeps its latencies and has busy equal to wall. A decentral query
// computes in memory and never waits on I/O or a timer, so while one runs
// some thread of the process is on a CPU unless the host has taken the
// vCPUs away; time the process did not run cannot be the query's. On
// the shared 2-vCPU VM the host took a busy vCPU away for 10-35 % of each
// second, in slices of milliseconds that land on most millisecond queries
// (identical decentral queries within one run differed by a median 1.2x
// and a 90th percentile 2.3x, with the collector all but off too), and
// that moved decentral p99 by 40 % and throughput by 35 % between runs of
// the same code. The sort probe does not see it, since its median dodges
// the slices. The cap leaves in whatever the process ran, the collector
// included.
func onCPU(ph *phase) (capped []int64, wall, busy time.Duration) {
	for _, d := range ph.slot {
		wall += time.Duration(d)
	}
	if ph.cpu == nil {
		return ph.lat, wall, wall
	}
	capped = make([]int64, len(ph.lat))
	for i, l := range ph.lat {
		capped[i] = min(l, ph.cpu[i])
		busy += time.Duration(min(ph.slot[i], ph.cpu[i]))
	}
	return capped, wall, busy
}

// endToEnd fills five of the six end-to-end metrics, and the run facts
// that go with them, from the run's set-up times in seconds and its whole
// query phase: set-up time is the median of the set-ups, throughput is
// completed queries over the time the caller spent issuing them (the
// blocks' slots, each capped by onCPU; the probes between blocks are left
// out), the latencies are percentiles over every op's (capped) latency, and
// CPU per query is the process's CPU time over the phase less the
// probes', per op. Each is scaled by the phase's probe speed factor:
// set-up runs on the same host seconds before the phase, and over ten
// central runs scaling took its spread from 23 % to 8 %. The wall-clock
// figures stay in the facts. The caller adds heap_mb once the phase is
// garbage.
func endToEnd(rep *report, setups []float64, ph *phase) error {
	measured, err := summarize(ph.lat)
	if err != nil {
		return err
	}
	capped, wall, busy := onCPU(ph)
	s, err := summarize(capped)
	if err != nil {
		return err
	}
	var probed time.Duration
	for _, p := range ph.probes {
		probed += p
	}
	n := float64(s.n)
	f := speed(ph.probes)
	qps := n / busy.Seconds()
	cpu := (ph.use.cpu - probed).Seconds() * 1e6 / n
	rep.metric("setup_s", "s", median(setups)*f)
	rep.metric("throughput_qps", "1/s", qps/f)
	rep.metric("latency_p50_us", "us", s.p50*f)
	rep.metric("latency_p99_us", "us", s.p99*f)
	rep.metric("cpu_us_per_query", "us", cpu*f)
	rep.facts["speed_factor"] = f
	rep.facts["off_cpu_share"] = 1 - busy.Seconds()/wall.Seconds()
	rep.facts["raw_throughput_qps"] = qps
	rep.facts["raw_latency_p50_us"] = s.p50
	rep.facts["raw_latency_p99_us"] = s.p99
	rep.facts["wall_throughput_qps"] = n / wall.Seconds()
	rep.facts["wall_latency_p50_us"] = measured.p50
	rep.facts["wall_latency_p99_us"] = measured.p99
	rep.facts["raw_cpu_us_per_query"] = cpu
	rep.facts["setup_runs_s"] = setups
	rep.facts["queries"] = s.n
	rep.facts["blocks"] = len(ph.probes)
	rep.facts["query_phase_s"] = ph.use.wall.Seconds()
	rep.facts["inputs_exhausted"] = ph.exhausted
	rep.facts["highest_justified_percentile"] = float64(s.tail) / 100
	rep.facts["slow_mode_share"] = s.slow
	rep.facts["gc_cpu_fraction"] = ph.use.gcFraction()
	return nil
}
