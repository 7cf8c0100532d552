package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	"bwcluster"
	"bwcluster/internal/fleet"
	"bwcluster/internal/transport"
)

const (
	// fleetTick pins the shards' gossip period. The runtime gossips every
	// tick even after convergence, at about 37 ms of CPU per tick at
	// n = 512 on a 2-CPU host: at bwcluster.DefaultAsyncTick (1 ms) that
	// saturates both cores and makes every fleet number noisy, at 100 ms
	// it still takes a third of a core, and at this tick it stays under a
	// tenth of one (the traced run measures both ends).
	fleetTick = 500 * time.Millisecond
	// routerCache is the router's query-cache bound; the key universe is
	// three times larger, so FIFO eviction happens.
	routerCache  = 1024
	universeSize = 3 * routerCache
	// decentralShare of requests, and decentralKeys of the key universe,
	// are decentralized queries, routed to the owner shard's AsyncRuntime.
	decentralShare = 0.10
	decentralKeys  = universeSize / 10
	// zipfS skews key popularity so the router hit share sits inside
	// [hitBandLo, hitBandHi]: p50 falls in the hit mode and p99 in the
	// miss/decentral tail, away from the mode boundary.
	zipfS                = 1.02
	hitBandLo, hitBandHi = 0.6, 0.9
	// setupTimeout bounds every readiness wait; gossip convergence at
	// fleetTick takes about 20 s.
	setupTimeout = 90 * time.Second
)

// fleetKey is one request of the key universe.
type fleetKey struct {
	q         query
	decentral bool
	url       string
}

// fleetUniverse draws the key universe: central keys as in the central
// workload, decentral keys as in the decentral one.
func fleetUniverse(in *inputs, classes []float64) []fleetKey {
	nd := decentralKeys
	keys := make([]fleetKey, 0, universeSize)
	for _, q := range centralQueries(in, 3, universeSize-nd) {
		keys = append(keys, fleetKey{q: q})
	}
	for _, q := range decentralQueries(in, 4, nd, classes) {
		keys = append(keys, fleetKey{q: q, decentral: true})
	}
	return keys
}

// fleetSequence draws the request sequence: decentral with probability
// decentralShare, and within each mode a zipf-ranked key.
func fleetSequence(in *inputs, count int) []int32 {
	nd := decentralKeys
	nc := universeSize - nd
	r := in.rng(5)
	zc := rand.NewZipf(r, zipfS, 1, uint64(nc-1))
	zd := rand.NewZipf(r, zipfS, 1, uint64(nd-1))
	seq := make([]int32, count)
	for i := range seq {
		if r.Float64() < decentralShare {
			seq[i] = int32(nc + int(zd.Uint64()))
		} else {
			seq[i] = int32(zc.Uint64())
		}
	}
	return seq
}

// fleetRig is the serving tier stood up in this process: shard 0 builds
// and streams, shard 1 restores from the stream, each behind a loopback
// server, and a router fronts both. Everything it starts, close stops.
type fleetRig struct {
	sys       *bwcluster.System
	tr        *transport.ChanTransport
	shards    []*fleet.Shard
	servers   []*httptest.Server
	router    *fleet.Router
	front     *httptest.Server
	upstream  *http.Transport // the router's connections to the shards
	clientTr  *http.Transport // the caller's connection
	client    *http.Client
	replicate time.Duration // StreamTo until the replica is ready
}

// startFleet stands the fleet up around a built system and returns once
// the router sees every shard ready. spans, when non-nil, wraps every
// handler and the router's upstream calls.
func startFleet(sys *bwcluster.System, spans *spanLog) (*fleetRig, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	rig := &fleetRig{sys: sys, tr: transport.NewChan(0)}
	urls := make([]string, 2)
	for i := range urls {
		sh := fleet.NewShard(fleet.ShardConfig{Index: i, Shards: 2, Transport: rig.tr, Tick: fleetTick, Logger: logger})
		srv := httptest.NewServer(spans.wrap(layerShard, sh.Handler()))
		rig.shards = append(rig.shards, sh)
		rig.servers = append(rig.servers, srv)
		urls[i] = srv.URL
	}
	rig.upstream = &http.Transport{MaxIdleConnsPerHost: 4}
	var upstream http.RoundTripper = rig.upstream
	if spans != nil {
		upstream = &tracedTransport{log: spans, next: rig.upstream}
	}
	rig.clientTr = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	rig.client = &http.Client{Transport: rig.clientTr, Timeout: 30 * time.Second}

	if err := rig.shards[1].StartReplica(); err != nil {
		rig.close()
		return nil, fmt.Errorf("start replica: %w", err)
	}
	if err := rig.shards[0].Install(sys); err != nil {
		rig.close()
		return nil, fmt.Errorf("install builder: %w", err)
	}
	t0 := time.Now()
	if err := rig.shards[0].StreamTo(1, 1); err != nil {
		rig.close()
		return nil, fmt.Errorf("stream snapshot: %w", err)
	}
	if err := waitFor("replica ready", rig.shards[1].Ready); err != nil {
		rig.close()
		return nil, err
	}
	rig.replicate = time.Since(t0)

	rig.router = fleet.NewRouter(fleet.RouterConfig{
		Shards: urls,
		Logger: logger,
		// Admission stays on the path but never binds: one closed-loop
		// caller is far below this rate, and a run that queues or sheds
		// fails.
		Admission: fleet.AdmissionConfig{Rate: 1e9, Burst: 1e9},
		CacheSize: routerCache,
		Client:    &http.Client{Transport: upstream, Timeout: 15 * time.Second},
	})
	rig.router.Start()
	rig.front = httptest.NewServer(spans.wrap(layerRouter, rig.router))
	if err := waitFor("router sees every shard ready", rig.ready); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// ready reports whether the router sees every shard ready.
func (r *fleetRig) ready() bool {
	var body struct {
		ShardsReady int `json:"shardsReady"`
	}
	status, err := r.getJSON(r.front.URL+"/v1/ready", &body)
	return err == nil && status == http.StatusOK && body.ShardsReady == len(r.shards)
}

// converged reports whether both shard runtimes' convergence monitors
// report their gossip quiet (serveapi answers /v1/health with 200).
func (r *fleetRig) converged() bool {
	for _, s := range r.servers {
		if status, err := r.getJSON(s.URL+"/v1/health", nil); err != nil || status != http.StatusOK {
			return false
		}
	}
	return true
}

// awaitConvergence waits, untimed, for both runtimes to reach the
// overlay's fixed point. Set-up ends when the router can serve, but a
// decentralized query answered before the fixed point gets a different
// answer than System.Query, so the query phase starts after this wait —
// one of gossip ticks (the monitor wants 25 quiet ones), not of work.
func (r *fleetRig) awaitConvergence() error {
	return waitFor("shard gossip converged", r.converged)
}

// getJSON fetches url with the caller's client, decoding the body into v
// when v is non-nil.
func (r *fleetRig) getJSON(url string, v any) (int, error) {
	resp, err := r.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return 0, err
		}
	}
	return resp.StatusCode, nil
}

// ledgerBytes sums the bandwidth ledgers' cumulative bytes over both
// shards (the shards share one transport, which accounts into whichever
// ledger was attached last).
func (r *fleetRig) ledgerBytes() (int64, error) {
	var total int64
	for _, s := range r.servers {
		var snap struct {
			TotalBytes int64 `json:"totalBytes"`
		}
		status, err := r.getJSON(s.URL+"/v1/bandwidth", &snap)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("GET /v1/bandwidth: status %d", status)
		}
		total += snap.TotalBytes
	}
	return total, nil
}

// close stops everything startFleet started: the caller's and the
// router's keep-alive connections, the loopback servers, the router's
// probe loop, the replicator and both runtimes, and the transport.
func (r *fleetRig) close() {
	r.clientTr.CloseIdleConnections()
	if r.front != nil {
		r.front.Close()
	}
	if r.router != nil {
		r.router.Stop()
	}
	r.upstream.CloseIdleConnections()
	for _, s := range r.servers {
		s.Close()
	}
	for _, sh := range r.shards {
		sh.Close()
	}
	_ = r.tr.Close() // ChanTransport.Close cannot fail
}

// waitFor polls cond until it holds or setupTimeout passes.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(setupTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, setupTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// variant is one distinct response body seen for a key, and how often.
type variant struct {
	body []byte
	n    int64
}

// fleetOutcome is what a fleet phase saw, beyond its latencies.
type fleetOutcome struct {
	variants              [][]variant // per universe key
	requests, decentral   int64
	hits, decentralMisses int64
	decentralLat          []int64 // ns, the decentralized requests' latencies
}

// fleetPhase issues the request sequence through the router until dur
// elapses: one caller, one connection, each response read in full. With
// spans non-nil every other request carries a benchmark request id and
// is traced at every layer.
func fleetPhase(rep *report, rig *fleetRig, keys []fleetKey, seq []int32, dur time.Duration, spans *spanLog) (*phase, *fleetOutcome) {
	out := &fleetOutcome{variants: make([][]variant, len(keys))}
	ph := cycle(rep, 1, len(seq), dur, spans, layerClient, false, func(_, i int, traced bool) {
		key := &keys[seq[i]]
		out.requests++
		if key.decentral {
			out.decentral++
		}
		req, err := http.NewRequest(http.MethodGet, key.url, nil)
		if err != nil {
			rep.fail(1, "request %d: %v", i, err)
			return
		}
		if traced {
			req.Header.Set("X-Request-Id", requestID(i))
		}
		t0 := time.Now()
		resp, err := rig.client.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if key.decentral {
			out.decentralLat = append(out.decentralLat, time.Since(t0).Nanoseconds())
		}
		if err != nil {
			rep.fail(1, "request %d (%s): %v", i, key.url, err)
			return
		}
		// serveapi reports an async-query timeout as 400, so any non-200
		// counts: treating 4xx as the client's fault would hide a stalled
		// decentral path.
		if resp.StatusCode != http.StatusOK {
			rep.fail(1, "request %d (%s): status %d: %s", i, key.url, resp.StatusCode, bytes.TrimSpace(body))
			return
		}
		if resp.Header.Get("X-Fleet-Cache") == "hit" {
			out.hits++
		} else if key.decentral {
			out.decentralMisses++
		}
		vs := out.variants[seq[i]]
		j := slices.IndexFunc(vs, func(v variant) bool { return bytes.Equal(v.body, body) })
		if j < 0 {
			out.variants[seq[i]] = append(vs, variant{body: body, n: 1})
		} else {
			vs[j].n++
		}
	})
	return ph, out
}

// checkFleet checks every distinct response: a central body must equal
// the builder system's FindCluster, a decentral one the builder's
// System.Query (the async runtime settles to the synchronous overlay's
// fixed point). It also applies the run-level
// checks: the router hit share inside its band, and no admission delay or
// shedding.
func checkFleet(rep *report, sys *bwcluster.System, keys []fleetKey, out *fleetOutcome, delta counters) {
	var failed, found int64
	var first error
	for ki, vs := range out.variants {
		q := keys[ki].q
		for _, v := range vs {
			var body struct {
				Members []int `json:"members"`
				Found   bool  `json:"found"`
			}
			err := json.Unmarshal(v.body, &body)
			if err == nil && body.Found != (body.Members != nil) {
				err = errors.New("found flag disagrees with members")
			}
			if err == nil && keys[ki].decentral {
				if body.Found {
					found += v.n
				}
				err = sameAsQuery(sys, q, body.Members)
			}
			if err == nil && !keys[ki].decentral {
				want, ferr := sys.FindCluster(int(q.k), q.b)
				if ferr != nil {
					err = ferr
				} else if !slices.Equal(body.Members, want) {
					err = fmt.Errorf("router answered %v, the builder's FindCluster %v", body.Members, want)
				}
			}
			if err != nil {
				failed += v.n
				if first == nil {
					first = fmt.Errorf("%s: %w", keys[ki].url, err)
				}
			}
		}
	}
	if failed > 0 {
		rep.fail(failed, "%d wrong fleet answers; first: %v", failed, first)
	}
	n := float64(max(out.requests, 1))
	hit := float64(out.hits) / n
	queued := delta.family("bwc_fleet_router_queued_total")
	shed := delta.family("bwc_fleet_router_shed_total")
	if hit < hitBandLo || hit > hitBandHi {
		rep.problem("router hit share %.3f left its band [%.2f, %.2f]", hit, hitBandLo, hitBandHi)
	}
	if queued > 0 || shed > 0 {
		rep.problem("admission queued %v and shed %v requests; the run must not bind on admission", queued, shed)
	}
	rep.facts["router_hit_share"] = hit
	rep.facts["decentral_share"] = float64(out.decentral) / n
	rep.facts["decentral_found_share"] = float64(found) / float64(max(out.decentral, 1))
	rep.facts["admission_queued"] = queued
	rep.facts["admission_shed"] = shed
	rep.facts["router_cache"] = routerCache
	rep.facts["key_universe"] = universeSize
	rep.facts["zipf_s"] = zipfS
}

// fleetURLs fills every key's request URL against the router.
func fleetURLs(base string, keys []fleetKey) {
	for i := range keys {
		q := keys[i].q
		u := base + "/v1/cluster?k=" + strconv.Itoa(int(q.k)) + "&b=" + strconv.FormatFloat(q.b, 'g', -1, 64)
		if keys[i].decentral {
			u += "&mode=decentral&start=" + strconv.Itoa(int(q.start))
		}
		keys[i].url = u
	}
}

// sameAsQuery checks a decentralized answer from an async runtime: a
// well-formed cluster when found, equal to the synchronous overlay's
// answer to the same query.
func sameAsQuery(sys *bwcluster.System, q query, got []int) error {
	if got != nil {
		if err := checkMembers(got, int(q.k), sys.Len()); err != nil {
			return err
		}
	}
	want, err := sys.Query(int(q.start), int(q.k), q.b)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want.Members) {
		return fmt.Errorf("answered %v, System.Query gives %v", got, want.Members)
	}
	return nil
}

// slowShare is the share of lat (ns) slower than ten times p50 (µs): the
// slow mode a percentile must stay clear of.
func slowShare(lat []int64, p50 float64) float64 {
	slow := 0
	for _, l := range lat {
		if float64(l) > 10*p50*1e3 {
			slow++
		}
	}
	return float64(slow) / float64(max(len(lat), 1))
}
