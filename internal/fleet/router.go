package fleet

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bwcluster/internal/serveapi"
	"bwcluster/internal/telemetry"
)

// Router-layer telemetry: admission outcomes, cache outcomes and
// upstream failovers, all cheap counters on the hot path.
var (
	mRouterShed = telemetry.NewCounter("bwc_fleet_router_shed_total",
		"Requests shed by per-tenant admission control (429).")
	mRouterQueued = telemetry.NewCounter("bwc_fleet_router_queued_total",
		"Requests delayed in the admission queue before proceeding.")
	mRouterCache = telemetry.NewCounterVec("bwc_fleet_router_cache_total",
		"Query cache outcomes at the router.", "outcome")
	mRouterProxied = telemetry.NewCounterVec("bwc_fleet_router_proxied_total",
		"Requests proxied to shards, by outcome.", "outcome")
	mRouterFailover = telemetry.NewCounter("bwc_fleet_router_failovers_total",
		"Proxy attempts re-routed to another shard after a failure.")
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Shards lists the shard base URLs ("http://127.0.0.1:8081"), fixed
	// for the router's lifetime. Index in this slice is the shard id the
	// rendezvous assignment speaks of.
	Shards []string
	// Logger receives access logs and shard state transitions.
	Logger *slog.Logger
	// Metrics is the registry exposition handler mounted at /metrics
	// (nil: unrouted) — passed in because library code must not touch
	// the process registry.
	Metrics http.Handler
	// Admission bounds every tenant's query rate.
	Admission AdmissionConfig
	// CacheSize bounds the query cache (non-positive: 4096 entries).
	CacheSize int
	// ProbeInterval is the readiness-probe period (non-positive: 250ms).
	ProbeInterval time.Duration
	// Client performs shard requests (nil: a client with a 15s timeout).
	Client *http.Client
}

// shardState is the router's view of one shard: flipped ready by the
// probe loop and flipped unready eagerly by a failed proxy, so traffic
// leaves a dead shard at the first error instead of waiting out a probe
// period.
type shardState struct {
	addr  string
	ready atomic.Bool
	epoch atomic.Uint64
}

// Router is the fleet's stateless HTTP front: per-tenant admission,
// the epoch-keyed query cache, rendezvous routing of decentralized
// queries to the shard hosting their start peer, round-robin fan-out of
// centralized queries across warm replicas, and eager failover. All
// serving state lives in the shards; a router restart loses only cache
// and rate-limit history.
type Router struct {
	cfg     RouterConfig
	limiter *Limiter
	cache   *Cache
	client  *http.Client
	logger  *slog.Logger
	shards  []*shardState
	h       http.Handler
	rr      atomic.Uint64
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewRouter builds the router. Start launches its probe loop; the
// router serves before the first probe completes, answering 503 until
// a shard reports ready.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Second}
	}
	rt := &Router{
		cfg:     cfg,
		limiter: NewLimiter(cfg.Admission),
		cache:   NewCache(cfg.CacheSize),
		client:  client,
		logger:  logger,
		done:    make(chan struct{}),
	}
	for _, addr := range cfg.Shards {
		rt.shards = append(rt.shards, &shardState{addr: addr})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster", rt.cluster)
	mux.HandleFunc("GET /v1/node", rt.proxyAny)
	mux.HandleFunc("GET /v1/predict", rt.proxyAny)
	mux.HandleFunc("GET /v1/tightest", rt.proxyAny)
	mux.HandleFunc("GET /v1/label", rt.proxyAny)
	mux.HandleFunc("GET /v1/info", rt.proxyAny)
	mux.HandleFunc("GET /v1/ready", rt.readyEndpoint)
	mux.HandleFunc("GET /v1/fleet", rt.fleetEndpoint)
	mux.HandleFunc("GET /v1/fleet/bandwidth", rt.fleetBandwidth)
	if cfg.Metrics != nil {
		mux.Handle("GET /metrics", cfg.Metrics)
	}
	rt.h = serveapi.WithObservability(logger, mux)
	return rt
}

// Start launches the readiness-probe loop.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go rt.probeLoop()
}

// Stop halts the probe loop.
func (rt *Router) Stop() {
	close(rt.done)
	rt.wg.Wait()
}

// Cache exposes the query cache for stats reporting.
func (rt *Router) Cache() *Cache { return rt.cache }

// ServeHTTP dispatches through the observability-wrapped mux.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.h.ServeHTTP(w, r) }

// probeLoop polls every shard's /v1/ready each interval, maintaining
// readiness and the observed fleet epoch (the max across ready shards);
// an epoch move flushes the query cache.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	rt.probeAll()
	for {
		select {
		case <-rt.done:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	for i, s := range rt.shards {
		ready, epoch := rt.probe(s.addr)
		was := s.ready.Swap(ready)
		if was != ready {
			rt.logger.Info("shard readiness changed", "shard", i, "addr", s.addr, "ready", ready)
		}
		if ready {
			s.epoch.Store(epoch)
			if rt.cache.Bump(epoch) {
				rt.logger.Info("epoch bump flushed query cache", "epoch", epoch)
			}
		}
	}
}

func (rt *Router) probe(addr string) (ready bool, epoch uint64) {
	resp, err := rt.client.Get(addr + "/v1/ready")
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	var body struct {
		Ready bool   `json:"ready"`
		Epoch uint64 `json:"epoch"`
	}
	if resp.StatusCode != http.StatusOK || decodeJSON(resp.Body, &body) != nil {
		return false, 0
	}
	return body.Ready, body.Epoch
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// tenantOf extracts the admission identity: the X-Tenant header, or the
// shared "default" bucket for unlabeled traffic.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit runs admission control for the request; a false return means
// the 429 has been written.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) bool {
	wait, ok := rt.limiter.Admit(tenantOf(r), time.Now())
	if !ok {
		mRouterShed.Inc()
		w.Header().Set("Retry-After", "1")
		serveapi.WriteJSON(w, http.StatusTooManyRequests,
			map[string]any{"error": "tenant over admission rate; retry later"})
		return false
	}
	if wait > 0 {
		mRouterQueued.Inc()
		select {
		case <-time.After(wait):
		case <-r.Context().Done():
			return false
		}
	}
	return true
}

// cluster serves the fleet's query path: admission, the epoch-keyed
// cache, then a proxied shard query. Decentralized queries go to the
// shard whose runtime hosts the start peer; if that shard is down they
// fall back to a centralized answer from any warm replica (same fixed
// point, no routing hop metadata) rather than failing.
func (rt *Router) cluster(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r) {
		return
	}
	k, err := serveapi.IntParam(r, "k")
	if err != nil {
		serveapi.BadRequest(w, err)
		return
	}
	b, err := serveapi.FloatParam(r, "b")
	if err != nil {
		serveapi.BadRequest(w, err)
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "central"
	}
	start := 0
	if raw := r.URL.Query().Get("start"); raw != "" {
		if start, err = serveapi.IntParam(r, "start"); err != nil {
			serveapi.BadRequest(w, err)
			return
		}
	}
	epoch := rt.cache.Epoch()
	key := CacheKey{Endpoint: "/v1/cluster", Params: FormatParams(k, b, mode, start), Epoch: epoch}
	if resp, ok := rt.cache.Get(key); ok {
		mRouterCache.Inc("hit")
		w.Header().Set("X-Fleet-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
		return
	}
	mRouterCache.Inc("miss")

	var preferred []int
	// Epoch 0 means no shard has been probed yet (a built system's
	// membership epoch is always nonzero): the owner computed from it
	// would be wrong, and a misrouted decentral query fails at a shard
	// that does not host the start peer. Fall through to the central
	// rewrite until the first probe lands.
	if mode == "decentral" && len(rt.shards) > 0 && epoch != 0 {
		owner := Owner(start, len(rt.shards), epoch)
		if rt.shards[owner].ready.Load() {
			preferred = []int{owner}
		}
		// Owner down: any warm replica can answer the same query
		// centrally — the decentralized engine settles to the
		// centralized fixed point, so the members agree.
	}
	status, body, hdr, ok := rt.proxy(r, preferred)
	if !ok {
		serveapi.WriteJSON(w, http.StatusBadGateway,
			map[string]any{"error": "no shard could answer; fleet unready"})
		return
	}
	if status == http.StatusOK {
		rt.cache.Put(key, CachedResponse{Status: status, Body: body})
	}
	w.Header().Set("X-Fleet-Cache", "miss")
	if hdr != "" {
		w.Header().Set("X-Fleet-Fallback", hdr)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// proxyAny forwards a read endpoint to any ready shard with admission
// control but no caching (the prediction endpoints are already O(1) at
// the shard).
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r) {
		return
	}
	status, body, _, ok := rt.proxy(r, nil)
	if !ok {
		serveapi.WriteJSON(w, http.StatusBadGateway,
			map[string]any{"error": "no shard could answer; fleet unready"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// proxy performs the upstream request against the preferred shards
// first (when given), then every ready shard in round-robin order. A
// transport error or 5xx marks the shard unready on the spot — traffic
// leaves a dead shard at the first failure; the probe loop restores it
// when it answers again. fallback reports "central" when a decentral
// request was answered by a non-owner via mode rewrite.
func (rt *Router) proxy(r *http.Request, preferred []int) (status int, body []byte, fallback string, ok bool) {
	tried := make(map[int]bool, len(rt.shards))
	attempt := func(i int, rewriteCentral bool) (int, []byte, bool) {
		tried[i] = true
		url := rt.shards[i].addr + r.URL.Path
		if q := r.URL.RawQuery; q != "" {
			if rewriteCentral {
				qs := r.URL.Query()
				qs.Set("mode", "central")
				qs.Del("start")
				q = qs.Encode()
			}
			url += "?" + q
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
		if err != nil {
			return 0, nil, false
		}
		// Propagate the request id (assigned by WithObservability) and
		// the tenant, so the shard's access log and traces correlate
		// with the router's.
		if id := r.Header.Get("X-Request-Id"); id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		if tn := r.Header.Get("X-Tenant"); tn != "" {
			req.Header.Set("X-Tenant", tn)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			// A client that went away cancels the upstream call too;
			// that says nothing about the shard's health.
			if r.Context().Err() == nil {
				rt.markDown(i, err)
			}
			return 0, nil, false
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode >= 500 {
			rt.markDown(i, errors.New("upstream "+strconv.Itoa(resp.StatusCode)))
			return 0, nil, false
		}
		return resp.StatusCode, b, true
	}
	failed := 0
	for _, i := range preferred {
		if s, b, ok := attempt(i, false); ok {
			if failed > 0 {
				mRouterFailover.Add(failed)
			}
			mRouterProxied.Inc("ok")
			return s, b, "", true
		}
		failed++
	}
	// A decentral request reaching the fan-out stage is being answered
	// by a non-owner: rewrite it to a central query.
	rewrite := r.URL.Query().Get("mode") == "decentral"
	n := len(rt.shards)
	base := int(rt.rr.Add(1))
	for off := 0; off < n; off++ {
		i := (base + off) % n
		if tried[i] || !rt.shards[i].ready.Load() {
			continue
		}
		if s, b, ok := attempt(i, rewrite); ok {
			if failed > 0 {
				mRouterFailover.Add(failed)
			}
			mRouterProxied.Inc("ok")
			hdr := ""
			if rewrite {
				hdr = "central"
			}
			return s, b, hdr, true
		}
		failed++
	}
	mRouterProxied.Inc("unavailable")
	return 0, nil, "", false
}

func (rt *Router) markDown(i int, err error) {
	if rt.shards[i].ready.Swap(false) {
		rt.logger.Warn("shard marked down after proxy failure",
			"shard", i, "addr", rt.shards[i].addr, "err", err.Error())
	}
}

// readyEndpoint reports router readiness: ready while at least one
// shard answers queries.
func (rt *Router) readyEndpoint(w http.ResponseWriter, r *http.Request) {
	readyCount := 0
	for _, s := range rt.shards {
		if s.ready.Load() {
			readyCount++
		}
	}
	status := http.StatusOK
	if readyCount == 0 {
		status = http.StatusServiceUnavailable
	}
	serveapi.WriteJSON(w, status, map[string]any{
		"ready":       readyCount > 0,
		"shards":      len(rt.shards),
		"shardsReady": readyCount,
		"epoch":       rt.cache.Epoch(),
	})
}

// fleetEndpoint reports the router's full operational state: per-shard
// readiness and epochs, cache counters, and tenant population. tenants
// counts live admission buckets, not every tenant ever seen: a bucket
// that has refilled to its burst is dropped at the limiter's next sweep,
// so the count is on the order of the distinct tenants of the last
// (Burst+Queue)/Rate seconds (see Limiter).
func (rt *Router) fleetEndpoint(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(rt.shards))
	for i, s := range rt.shards {
		shards[i] = map[string]any{
			"addr":  s.addr,
			"ready": s.ready.Load(),
			"epoch": s.epoch.Load(),
		}
	}
	st := rt.cache.Stats()
	serveapi.WriteJSON(w, http.StatusOK, map[string]any{
		"shards": shards,
		"epoch":  rt.cache.Epoch(),
		"cache": map[string]any{
			"entries": st.Entries,
			"hits":    st.Hits,
			"misses":  st.Misses,
			"flushes": st.Flushes,
			"hitRate": rt.cache.HitRate(),
		},
		"tenants": rt.limiter.Tenants(),
	})
}
