package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"bwcluster"
	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
)

// phaseTolerance is how far the sum of the timed module calls may stray
// from the bwcluster.New time it decomposes before the traced run fails.
// One rebuild is set against the median of three builds on a VM whose
// neighbours move a single build by up to a fifth: the gap measured 2 %
// and 17 % on two runs of the same code.
const phaseTolerance = 0.25

// idleTicks is how many gossip ticks (and at least idleMin) the traced
// run watches a converged, query-free async runtime to measure what its
// gossip alone costs.
const (
	idleTicks = 8
	idleMin   = 2 * time.Second
)

// runTraced runs the traced pass of every workload on one matrix and
// prints every per-layer metric, each on the workload whose path the
// layer is on. Every other request or call is traced; the untraced half
// is the baseline the tracing overhead is measured against.
func runTraced(in *inputs, dur time.Duration) (*report, error) {
	rep := newReport()
	spans := &spanLog{}
	byWorkload := map[string][]span{}

	// New is timed three times on the one matrix; the phase sum is checked
	// against the median.
	systems, setups, err := setupPool([]*inputs{in, in, in})
	if err != nil {
		return nil, err
	}
	sys, newSec := systems[0], median(setups)
	o, err := newOracle(in, sys)
	if err != nil {
		return nil, err
	}
	pipe := o.pipe
	setupLayers(rep, pipe, newSec)

	// central: the facade pass, then the same queries straight into the
	// rebuilt pipeline's cluster.Index (before the answer check fills its
	// memo).
	qs := centralQueries(in, 1, perSystemInputs(dur/2, centralRate, 1))
	memo0 := scrape()
	ph, ans := centralPhase(rep, []*bwcluster.System{sys}, [][]query{qs}, dur/2, spans)
	memoRatio(rep, "central", scrape().minus(memo0))
	overhead(rep, "central", ph)
	goLayers(rep, "central", ph)
	byWorkload["central"] = spans.take()
	if err := clusterLayer(rep, pipe.index, qs[:len(ans[0])], dur/4); err != nil {
		return nil, err
	}
	checkCentral(rep, o, qs, ans[0], in.rng(11))

	// decentral: the facade pass, then the same queries straight into the
	// rebuilt overlay.Network.
	dqs := decentralQueries(in, 2, perSystemInputs(dur/2, decentralRate, 1), sys.Classes())
	ph, res := decentralPhase(rep, []*bwcluster.System{sys}, [][]query{dqs}, dur/2, spans)
	checkDecentral(rep, o, dqs, res[0])
	overhead(rep, "decentral", ph)
	goLayers(rep, "decentral", ph)
	byWorkload["decentral"] = spans.take()
	if err := overlayLayer(rep, pipe, dqs[:len(res[0])], dur/4); err != nil {
		return nil, err
	}

	if err := runtimeLayer(rep, in, sys); err != nil {
		return nil, err
	}
	if byWorkload["fleet"], err = fleetLayers(rep, in, sys, dur/2, spans); err != nil {
		return nil, err
	}
	path := fmt.Sprintf(".bench_build/perfbench/spans-seed%d.tsv", in.seed)
	if err := writeSpans(path, byWorkload); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.facts["spans_file"] = path
	runtime.KeepAlive(sys)
	return rep, nil
}

// setupLayers reports the construction phases, timed call by call in
// New's order, and checks that they add up to the New they decompose.
func setupLayers(rep *report, p *pipeline, newSec float64) {
	var sum float64
	for _, t := range p.phases {
		sum += t.seconds
		switch t.name {
		case "metric":
			rep.metric("metric.prep_s", "s", t.seconds)
		case "predtree.build":
			rep.metric("predtree.build_s", "s", t.seconds)
			rep.metric("predtree.measurements", "count", t.delta.family("bwc_predtree_measurements_total"))
		case "predtree.dist_matrix":
			rep.metric("predtree.dist_matrix_s", "s", t.seconds)
		case "cluster.index_build":
			rep.metric("cluster.index_build_s", "s", t.seconds)
		case "overlay.converge":
			rep.metric("overlay.converge_s", "s", t.seconds)
			rep.metric("overlay.converge_rounds", "count", float64(p.rounds))
			rep.metric("overlay.gossip_messages", "count", t.delta.family("bwc_overlay_gossip_messages_total"))
		}
	}
	rep.metric("setup.new_s", "s", newSec)
	rep.metric("setup.phase_sum_s", "s", sum)
	rep.facts["setup_phase_sum_ratio"] = sum / newSec
	rep.facts["setup_phase_tolerance"] = phaseTolerance
	if math.Abs(sum/newSec-1) > phaseTolerance {
		rep.problem("setup phases sum to %.3fs, New took %.3fs: outside the %.0f%% tolerance", sum, newSec, phaseTolerance*100)
	}
}

// overhead reports the tracing overhead of one traced pass: the median
// cycle (from one op's start to the next's, which includes recording the
// span) of traced ops against untraced ones, in percent.
func overhead(rep *report, workload string, ph *phase) {
	var traced, plain []float64
	for i := 0; i+1 < len(ph.start); i++ {
		c := float64(ph.start[i+1] - ph.start[i])
		if i%2 == 0 {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		rep.problem("%s: too few ops to measure tracing overhead", workload)
		return
	}
	rep.metric("trace.overhead_pct."+workload, "%", (median(traced)/median(plain)-1)*100)
}

// memoRatio reports the share of cluster.Index lookups a workload's
// pass answered from the memo, from the pass's counter delta.
func memoRatio(rep *report, workload string, delta counters) {
	hits := delta.family("bwc_cluster_index_cache_hits_total")
	misses := delta.family("bwc_cluster_index_cache_misses_total")
	rep.metric("cluster.memo_hit_ratio."+workload, "ratio", hits/math.Max(hits+misses, 1))
}

// goLayers reports the Go runtime's share of a pass: GC CPU and
// allocations per op.
func goLayers(rep *report, workload string, ph *phase) {
	n := float64(max(len(ph.lat), 1))
	rep.metric("gc.cpu_fraction."+workload, "ratio", ph.use.gcFraction())
	rep.metric("allocs_per_query."+workload, "count", ph.use.allocs/n)
	rep.metric("alloc_bytes_per_query."+workload, "bytes", ph.use.allocBytes/n)
}

// timedPercentiles reports name_p50_us and name_p99_us of lat (ns).
func timedPercentiles(rep *report, name string, lat []int64) error {
	s, err := summarize(lat)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rep.metric(name+"_p50_us", "us", s.p50)
	rep.metric(name+"_p99_us", "us", s.p99)
	return nil
}

// clusterLayer times the central queries against the rebuilt
// cluster.Index directly — the Algorithm 1 scan and memo without the
// facade — and counts the scan rows they cost.
func clusterLayer(rep *report, ix *cluster.Index, qs []query, budget time.Duration) error {
	workers := cluster.Workers(0, 0)
	before := scrape()
	var lat []int64
	deadline := time.Now().Add(budget)
	for _, q := range qs {
		l, err := metric.DistanceForBandwidthConstraint(q.b, constant)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		if _, err := ix.FindParallel(int(q.k), l, workers); err != nil {
			return fmt.Errorf("cluster layer: %w", err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	d := scrape().minus(before)
	rep.metric("cluster.scan_rows_per_query", "count", d.family("bwc_cluster_scan_rows_total")/float64(max(len(lat), 1)))
	return timedPercentiles(rep, "cluster.find", lat)
}

// overlayLayer times the decentral queries against the rebuilt, converged
// overlay.Network directly (Algorithm 4 without the facade).
func overlayLayer(rep *report, p *pipeline, qs []query, budget time.Duration) error {
	var lat []int64
	hops, found := 0, 0
	deadline := time.Now().Add(budget)
	for _, q := range qs {
		l, err := metric.DistanceForBandwidthConstraint(q.b, constant)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		res, err := p.net.Query(int(q.start), int(q.k), l)
		if err != nil {
			return fmt.Errorf("overlay layer: %w", err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
		hops += res.Hops
		if res.Found() {
			found++
		}
	}
	n := float64(max(len(lat), 1))
	rep.metric("overlay.hops_mean", "count", float64(hops)/n)
	rep.metric("overlay.found_ratio", "ratio", float64(found)/n)
	return timedPercentiles(rep, "overlay.query", lat)
}

// runtimeLayer measures the async runtime on its own: idle gossip at the
// fleet's pinned tick and at the default tick (CPU cores used over a
// fixed window once gossip has converged), and decentral query latency at
// the pinned tick through AsyncRuntime.Query.
func runtimeLayer(rep *report, in *inputs, sys *bwcluster.System) error {
	cores, err := idleCores(sys, fleetTick, func(art *bwcluster.AsyncRuntime) error {
		qs := decentralQueries(in, 6, 2000, sys.Classes())
		lat := make([]int64, 0, len(qs))
		for _, q := range qs {
			t0 := time.Now()
			res, err := art.Query(int(q.start), int(q.k), q.b, 10*time.Second)
			lat = append(lat, time.Since(t0).Nanoseconds())
			if err == nil {
				err = sameAsQuery(sys, q, res.Members)
			}
			if err != nil {
				rep.fail(1, "async query (start=%d k=%d b=%.6g): %v", q.start, q.k, q.b, err)
			}
		}
		rep.attempted += int64(len(qs))
		return timedPercentiles(rep, "runtime.query", lat)
	})
	if err != nil {
		return err
	}
	rep.metric("runtime.idle_cpu_cores", "cores", cores)
	def, err := idleCores(sys, bwcluster.DefaultAsyncTick, nil)
	if err != nil {
		return err
	}
	rep.metric("runtime.idle_cpu_cores_default_tick", "cores", def)
	rep.facts["pinned_tick_ms"] = fleetTick.Seconds() * 1e3
	rep.facts["default_tick_ms"] = bwcluster.DefaultAsyncTick.Seconds() * 1e3
	return nil
}

// idleCores starts an async runtime over sys at tick, waits for its
// gossip to settle, and returns the CPU cores the process used over the
// idle window with no query in flight; then it runs after, if any, and
// stops the runtime.
func idleCores(sys *bwcluster.System, tick time.Duration, after func(*bwcluster.AsyncRuntime) error) (float64, error) {
	art, err := sys.AsyncRuntime(tick)
	if err != nil {
		return 0, err
	}
	defer art.Close()
	if err := art.Settle(max(4*tick, 50*time.Millisecond), setupTimeout); err != nil {
		return 0, err
	}
	cpu0, t0 := cpuTime(), time.Now()
	time.Sleep(max(idleTicks*tick, idleMin))
	cores := (cpuTime() - cpu0).Seconds() / time.Since(t0).Seconds()
	if after != nil {
		if err := after(art); err != nil {
			return 0, err
		}
	}
	return cores, nil
}

// fleetLayers runs the traced fleet pass over sys as the builder: the
// persistence and replication calls of set-up, then traced requests
// through router, proxy hop and shard handler. It returns the pass's
// spans.
func fleetLayers(rep *report, in *inputs, sys *bwcluster.System, dur time.Duration, spans *spanLog) ([]span, error) {
	t0 := time.Now()
	blob, err := sys.SaveBytes()
	if err != nil {
		return nil, err
	}
	rep.metric("persist.save_s", "s", time.Since(t0).Seconds())
	rep.metric("persist.snapshot_bytes", "bytes", float64(len(blob)))
	t0 = time.Now()
	if _, err := bwcluster.LoadBytes(blob); err != nil {
		return nil, err
	}
	rep.metric("persist.load_s", "s", time.Since(t0).Seconds())

	rig, err := startFleet(sys, spans)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	if err := rig.awaitConvergence(); err != nil {
		return nil, err
	}
	rep.metric("fleet.replicate_s", "s", rig.replicate.Seconds())

	keys := fleetUniverse(in, sys.Classes())
	fleetURLs(rig.front.URL, keys)
	seq := fleetSequence(in, perSystemInputs(dur, fleetRate, 1))
	ledger0, err := rig.ledgerBytes()
	if err != nil {
		return nil, err
	}
	cache0 := rig.router.Cache().Stats()
	before := scrape()
	ph, out := fleetPhase(rep, rig, keys, seq, dur, spans)
	delta := scrape().minus(before)
	ledger1, err := rig.ledgerBytes()
	if err != nil {
		return nil, err
	}
	cache1 := rig.router.Cache().Stats()
	checkFleet(rep, sys, keys, out, delta)
	whole, err := summarize(ph.lat)
	if err != nil {
		return nil, fmt.Errorf("fleet pass: %w", err)
	}
	rep.facts["decentral_slow_share"] = slowShare(out.decentralLat, whole.p50)
	overhead(rep, "fleet", ph)
	goLayers(rep, "fleet", ph)

	n := float64(max(out.requests, 1))
	memoRatio(rep, "fleet", delta)
	rep.metric("fleet.cache_hit_ratio", "ratio", float64(out.hits)/n)
	// Every router miss inserts one entry and FIFO evicts one per insert
	// beyond capacity, so evictions are inserts minus resident entries.
	rep.metric("fleet.cache_evictions", "count", float64(int64(cache1.Misses-cache0.Misses)-int64(cache1.Entries-cache0.Entries)))
	rep.metric("fleet.admission_queued", "count", delta.family("bwc_fleet_router_queued_total"))
	rep.metric("fleet.admission_shed", "count", delta.family("bwc_fleet_router_shed_total"))
	delivered := delta["bwc_transport_delivered_total{kind=\"query\"}"] + delta["bwc_transport_delivered_total{kind=\"result\"}"]
	rep.metric("transport.delivered_per_query", "count", delivered/math.Max(float64(out.decentralMisses), 1))
	rep.metric("transport.dropped", "count", delta.family("bwc_transport_dropped_total"))
	rep.metric("bwledger.bytes_per_query", "bytes", float64(ledger1-ledger0)/n)

	recorded := spans.take()
	clientHop, routerSelf, proxyHop, handler := selfTimes(recorded)
	if err := timedPercentiles(rep, "fleet.router_self", routerSelf); err != nil {
		return nil, err
	}
	if err := timedPercentiles(rep, "serveapi.handler", handler); err != nil {
		return nil, err
	}
	for name, lat := range map[string][]int64{"http.client_hop_p50_us": clientHop, "fleet.proxy_hop_p50_us": proxyHop} {
		sorted := slices.Clone(lat)
		slices.Sort(sorted)
		m, err := percentile(sorted, p50)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.metric(name, "us", float64(m)/1e3)
	}
	return recorded, nil
}
