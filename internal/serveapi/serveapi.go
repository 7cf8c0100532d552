// Package serveapi is the serving tier's shared HTTP layer: the JSON
// query API over a built bwcluster.System, the observability middleware
// (request IDs, access logs, RED metrics), and a truthful readiness
// endpoint. bwc-serve mounts it as its whole API; bwc-fleet shards
// mount the same handler behind the fleet router, so one schema and one
// middleware stack serve both the single-process and the sharded
// deployments.
//
// A Handler is constructed empty and answers 503 (and /v1/ready:
// {"ready": false}) until SetBackend installs a built System. That
// ordering is deliberate: the serving process binds its listener first
// and builds or loads the forest second, so load balancers and the
// fleet router probe readiness during the build instead of timing out
// on connect.
package serveapi

import (
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bwcluster"
	"bwcluster/internal/telemetry"
)

// queryTimeout bounds how long an async-routed query may wait for its
// routed answer before the request fails (and the runtime flight
// recorder logs a query_timeout anomaly).
const queryTimeout = 10 * time.Second

// Config configures a Handler. All fields are optional except Logger
// being nil falling back to slog.Default.
type Config struct {
	// Logger receives one access-log line per request.
	Logger *slog.Logger
	// Metrics is the metrics exposition handler mounted at /metrics.
	// Library code cannot touch the process registry (telemetry hygiene,
	// DESIGN.md §8c), so the serving binary passes its registry handler
	// in. Nil leaves /metrics unrouted.
	Metrics http.Handler
}

// backend is the serving state a Handler answers queries from; swapped
// in atomically by SetBackend.
type backend struct {
	sys   *bwcluster.System
	async *bwcluster.AsyncRuntime
}

// Handler serves the JSON API. A built System is safe for concurrent
// use (queries are read-only; the centralized query cache is internally
// lock-guarded), so requests are served without any serializing mutex —
// the server scales with GOMAXPROCS instead of handling one query at a
// time. The async runtime is non-nil when the backend routes
// decentralized queries through the live message-passing runtime, which
// also exposes its health monitor and flight recorder.
type Handler struct {
	h  http.Handler
	be atomic.Pointer[backend]
}

// New builds the API handler with no backend: every query endpoint
// answers 503 until SetBackend installs a built System.
func New(cfg Config) *Handler {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	h := &Handler{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", h.info)
	mux.HandleFunc("GET /v1/cluster", h.cluster)
	mux.HandleFunc("GET /v1/node", h.node)
	mux.HandleFunc("GET /v1/predict", h.predict)
	mux.HandleFunc("GET /v1/tightest", h.tightest)
	mux.HandleFunc("GET /v1/label", h.label)
	mux.HandleFunc("GET /v1/trace", h.trace)
	mux.HandleFunc("GET /v1/ready", h.ready)
	mux.HandleFunc("GET /v1/health", h.health)
	mux.HandleFunc("GET /v1/membership", h.membership)
	mux.HandleFunc("GET /v1/flight", h.flight)
	mux.HandleFunc("GET /v1/bandwidth", h.bandwidth)
	// Observability plane: metrics exposition and the stdlib profiler.
	if cfg.Metrics != nil {
		mux.Handle("GET /metrics", cfg.Metrics)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	h.h = WithObservability(logger, mux)
	return h
}

// SetBackend installs the built System (and optional async runtime) the
// handler answers from, flipping /v1/ready to true. Safe to call while
// serving; later calls replace the backend atomically (the fleet
// replica path installs each caught-up snapshot this way).
func (h *Handler) SetBackend(sys *bwcluster.System, async *bwcluster.AsyncRuntime) {
	h.be.Store(&backend{sys: sys, async: async})
}

// Ready reports whether a backend is installed.
func (h *Handler) Ready() bool { return h.be.Load() != nil }

// ServeHTTP dispatches through the observability-wrapped mux.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.h.ServeHTTP(w, r) }

type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes body as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after the header is out can only be logged by the
	// server; the encoder writing to a ResponseWriter cannot fail for the
	// value types used here.
	_ = json.NewEncoder(w).Encode(body)
}

// BadRequest writes err as a 400 JSON error body.
func BadRequest(w http.ResponseWriter, err error) {
	WriteJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

// NotReady writes the 503 body unready endpoints answer with.
func NotReady(w http.ResponseWriter) {
	WriteJSON(w, http.StatusServiceUnavailable, errorBody{Error: "system not ready: forest still building or loading"})
}

// IntParam parses a required integer query parameter.
func IntParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, errors.New("missing required parameter " + name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errors.New("parameter " + name + " must be an integer")
	}
	return v, nil
}

// FloatParam parses a required finite float query parameter; NaN and
// ±Inf are rejected like any other non-number.
func FloatParam(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, errors.New("missing required parameter " + name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errors.New("parameter " + name + " must be a finite number")
	}
	return v, nil
}

// ready answers the readiness probe: 200 with the backend's shape once
// a built System is installed, 503 before. Distinct from /v1/health,
// which reports the async runtime's convergence verdict — a process can
// be ready (forest loaded) while its overlay is still converging.
func (h *Handler) ready(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"ready": true,
		"hosts": be.sys.Len(),
		"epoch": be.sys.Epoch(),
		"async": be.async != nil,
	})
}

func (h *Handler) info(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	st := be.sys.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"hosts":          be.sys.Len(),
		"classes":        be.sys.Classes(),
		"constant":       be.sys.Constant(),
		"epoch":          be.sys.Epoch(),
		"trees":          st.Trees,
		"measurements":   st.Measurements,
		"gossipRounds":   st.GossipRounds,
		"gossipMessages": st.GossipMessages,
	})
}

type clusterBody struct {
	Members    []int   `json:"members"`
	Found      bool    `json:"found"`
	Hops       int     `json:"hops,omitempty"`
	AnsweredBy int     `json:"answeredBy,omitempty"`
	ClassMbps  float64 `json:"classMbps,omitempty"`
}

func (h *Handler) cluster(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	k, err := IntParam(r, "k")
	if err != nil {
		BadRequest(w, err)
		return
	}
	b, err := FloatParam(r, "b")
	if err != nil {
		BadRequest(w, err)
		return
	}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "central":
		members, err := be.sys.FindCluster(k, b)
		if err != nil {
			BadRequest(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, clusterBody{Members: members, Found: members != nil})
	case "decentral":
		start := 0
		if r.URL.Query().Get("start") != "" {
			if start, err = IntParam(r, "start"); err != nil {
				BadRequest(w, err)
				return
			}
		}
		var res bwcluster.QueryResult
		if be.async != nil {
			res, err = be.async.Query(start, k, b, queryTimeout)
		} else {
			res, err = be.sys.Query(start, k, b)
		}
		if err != nil {
			BadRequest(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, clusterBody{
			Members: res.Members, Found: res.Found(),
			Hops: res.Hops, AnsweredBy: res.AnsweredBy, ClassMbps: res.Class,
		})
	default:
		BadRequest(w, errors.New("mode must be central or decentral"))
	}
}

func (h *Handler) node(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	b, err := FloatParam(r, "b")
	if err != nil {
		BadRequest(w, err)
		return
	}
	rawSet := r.URL.Query().Get("set")
	if rawSet == "" {
		BadRequest(w, errors.New("missing required parameter set"))
		return
	}
	var set []int
	for _, part := range strings.Split(rawSet, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			BadRequest(w, errors.New("set must be comma-separated host ids"))
			return
		}
		set = append(set, v)
	}
	res, err := be.sys.FindNodeForSet(set, b)
	if err != nil {
		BadRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"node":           res.Node,
		"found":          res.Found(),
		"worstBandwidth": res.WorstBandwidth,
	})
}

func (h *Handler) predict(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	u, err := IntParam(r, "u")
	if err != nil {
		BadRequest(w, err)
		return
	}
	v, err := IntParam(r, "v")
	if err != nil {
		BadRequest(w, err)
		return
	}
	pred, err := be.sys.PredictBandwidth(u, v)
	if err != nil {
		BadRequest(w, err)
		return
	}
	measured, err := be.sys.MeasuredBandwidth(u, v)
	if err != nil {
		BadRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"predictedMbps": pred,
		"measuredMbps":  measured,
	})
}

func (h *Handler) tightest(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	k, err := IntParam(r, "k")
	if err != nil {
		BadRequest(w, err)
		return
	}
	members, worst, err := be.sys.TightestCluster(k)
	if err != nil {
		BadRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"members":        members,
		"found":          members != nil,
		"worstBandwidth": worst,
	})
}

// trace runs a decentralized query with tracing enabled and returns the
// span tree alongside the result: one child span per overlay hop with
// the peer id, the routing signal (CRT promise) and the candidate
// radius. With an async runtime the query instead travels the live
// message-passing overlay and the tree is reassembled from hop span
// events reported by every participating peer — including peers in
// other processes — with dropped reports surfacing as explicit "gap"
// spans. GET /v1/trace?k=10&b=50&start=3 (start defaults to 0).
func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	k, err := IntParam(r, "k")
	if err != nil {
		BadRequest(w, err)
		return
	}
	b, err := FloatParam(r, "b")
	if err != nil {
		BadRequest(w, err)
		return
	}
	start := 0
	if r.URL.Query().Get("start") != "" {
		if start, err = IntParam(r, "start"); err != nil {
			BadRequest(w, err)
			return
		}
	}
	var res bwcluster.QueryResult
	var span *telemetry.Span
	if be.async != nil {
		res, span, err = be.async.QueryTraced(start, k, b, queryTimeout)
	} else {
		res, span, err = be.sys.QueryTraced(start, k, b)
	}
	if err != nil {
		BadRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"members":    res.Members,
		"found":      res.Found(),
		"hops":       res.Hops,
		"answeredBy": res.AnsweredBy,
		"classMbps":  res.Class,
		"trace":      span,
	})
}

// health answers readiness truthfully. Without an async runtime a built
// System is immediately ready (construction converged the overlay
// synchronously before the listener opened). With one the live
// runtime's convergence monitor decides: until gossip has been quiet
// for the convergence window the body reports converged=false and the
// status is 503, so load balancers and readiness probes keep traffic
// away from a server whose routing tables are still moving. The body
// always carries the full health summary (gossip-age watermark, pending
// replies, trace backlog, logical clock).
func (h *Handler) health(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"mode": "loading", "converged": false,
		})
		return
	}
	if be.async == nil {
		WriteJSON(w, http.StatusOK, map[string]any{
			"mode":      "sync",
			"hosts":     be.sys.Len(),
			"converged": true,
		})
		return
	}
	hs := be.async.Health()
	status := http.StatusOK
	if !hs.Converged {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, map[string]any{
		"mode":              "async",
		"hosts":             hs.Hosts,
		"converged":         hs.Converged,
		"maxGossipAgeTicks": hs.MaxGossipAgeTicks,
		"pendingReplies":    hs.PendingReplies,
		"traceBacklog":      hs.TraceBacklog,
		"ticks":             hs.Ticks,
	})
}

// membership reports who is in the cluster and how alive they are.
// Without an async runtime membership is static — the built System's
// host set, trivially all alive. With one the body is the liveness
// tracker's snapshot: per-host status (a host whose gossip has gone
// quiet past the suspicion window reports suspect, past the death
// threshold dead), the membership epoch, and the recent
// join/leave/fail/suspect/recover event log.
func (h *Handler) membership(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	if be.async == nil {
		WriteJSON(w, http.StatusOK, map[string]any{
			"mode":  "sync",
			"epoch": be.sys.Len(),
			"alive": be.sys.Len(),
		})
		return
	}
	snap := be.async.Membership()
	WriteJSON(w, http.StatusOK, map[string]any{
		"mode":    "async",
		"epoch":   snap.Epoch,
		"alive":   snap.Alive,
		"suspect": snap.Suspect,
		"dead":    snap.Dead,
		"left":    snap.Left,
		"hosts":   snap.Hosts,
		"events":  snap.Events,
	})
}

// flight snapshots the async runtime's flight recorder — the bounded
// black-box ring of structured overlay events. JSON by default;
// ?format=text renders the post-mortem dump format. Without an async
// runtime there is nothing to record, so the endpoint reports 404.
func (h *Handler) flight(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	if be.async == nil {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder requires an async runtime"})
		return
	}
	rec := be.async.Flight()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = rec.WriteTo(w)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"cap":    rec.Cap(),
		"seq":    rec.Seq(),
		"events": rec.Snapshot(),
	})
}

// bandwidth snapshots the async runtime's bandwidth ledger: cumulative
// per-kind totals, the ring of closed accounting windows (top-K links
// with per-kind splits, actual bytes/sec joined against the prediction
// forest's link bandwidth), and the flat violation list. The ledger
// rides the runtime's transport, so without an async runtime there is
// nothing to account and the endpoint reports 404, mirroring /v1/flight.
func (h *Handler) bandwidth(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	if be.async == nil {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "bandwidth ledger requires an async runtime"})
		return
	}
	WriteJSON(w, http.StatusOK, be.async.Bandwidth())
}

func (h *Handler) label(w http.ResponseWriter, r *http.Request) {
	be := h.be.Load()
	if be == nil {
		NotReady(w)
		return
	}
	host, err := IntParam(r, "h")
	if err != nil {
		BadRequest(w, err)
		return
	}
	label, err := be.sys.DistanceLabel(host)
	if err != nil {
		BadRequest(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"host": host, "label": label})
}
