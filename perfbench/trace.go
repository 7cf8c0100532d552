package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bwcluster/internal/telemetry"
)

// counters is one scrape of the telemetry.Default() registry: every
// sample line of its Prometheus exposition, keyed by name and labels.
type counters map[string]float64

func scrape() counters {
	var b strings.Builder
	_ = telemetry.Default().WritePrometheus(&b) // a strings.Builder write cannot fail
	c := counters{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c[line[:i]] = v
		}
	}
	return c
}

// minus returns c - prev sample by sample.
func (c counters) minus(prev counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - prev[k]
	}
	return d
}

// family sums the samples of one metric family over all its label sets.
func (c counters) family(name string) float64 {
	var sum float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// Span layers. A fleet request carries spans at every boundary the
// benchmark can wrap from outside: its own client call, the router's
// handler, the router's upstream call, and the shard's handler.
const (
	layerCall   uint8 = iota // a library call (central, decentral)
	layerClient              // the caller's HTTP request, sent to receipt of the body
	layerRouter              // the router's http.Handler
	layerProxy               // the router's upstream round trip, through body close
	layerShard               // the shard's http.Handler (serveapi)
	numLayers
)

var layerNames = [numLayers]string{"call", "client", "router", "proxy", "shard"}

// span is one timed interval of one request at one layer.
type span struct {
	req        int32
	layer      uint8
	start, end int64 // Unix ns
}

// spanLog keeps spans in memory for the run; they are written out at
// exit. A nil log records nothing and wraps nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) record(req int32, layer uint8, t0, t1 time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{req: req, layer: layer, start: t0.UnixNano(), end: t1.UnixNano()})
	l.mu.Unlock()
}

// take returns the recorded spans and empties the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// requestIDPrefix marks the ids the benchmark's client assigns to traced
// requests; requests without one (untraced ones, the router's readiness
// probes) are not recorded.
const requestIDPrefix = "bench-"

func requestID(i int) string { return requestIDPrefix + strconv.Itoa(i) }

func requestIndex(h http.Header) (int32, bool) {
	id := h.Get("X-Request-Id")
	if !strings.HasPrefix(id, requestIDPrefix) {
		return 0, false
	}
	n, err := strconv.ParseInt(id[len(requestIDPrefix):], 10, 32)
	return int32(n), err == nil
}

// wrap records a layer span around every traced request h serves.
func (l *spanLog) wrap(layer uint8, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := requestIndex(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		l.record(id, layer, t0, time.Now())
	})
}

// tracedTransport records the router's upstream calls: from sending the
// request to closing the response body (the router reads the whole body
// before it closes it).
type tracedTransport struct {
	log  *spanLog
	next http.RoundTripper
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := requestIndex(r.Header)
	if !ok {
		return t.next.RoundTrip(r)
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.log.record(id, layerProxy, t0, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTimes splits traced fleet requests into per-layer self times by
// subtraction (ns): the client hop is the client span minus the router
// span, the router's self time is its span minus its upstream call (all
// of it on a cache hit), the proxy hop is the upstream call minus the
// shard handler, and the shard handler is its own span.
func selfTimes(spans []span) (clientHop, routerSelf, proxyHop, handler []int64) {
	type req struct{ start, end [numLayers]int64 }
	by := map[int32]*req{}
	for _, s := range spans {
		r := by[s.req]
		if r == nil {
			r = &req{}
			by[s.req] = r
		}
		r.start[s.layer], r.end[s.layer] = s.start, s.end
	}
	dur := func(r *req, l uint8) int64 { return r.end[l] - r.start[l] }
	for _, r := range by {
		if r.end[layerClient] == 0 || r.end[layerRouter] == 0 {
			continue
		}
		clientHop = append(clientHop, dur(r, layerClient)-dur(r, layerRouter))
		if r.end[layerProxy] == 0 {
			routerSelf = append(routerSelf, dur(r, layerRouter))
			continue
		}
		routerSelf = append(routerSelf, dur(r, layerRouter)-dur(r, layerProxy))
		if r.end[layerShard] != 0 {
			proxyHop = append(proxyHop, dur(r, layerProxy)-dur(r, layerShard))
			handler = append(handler, dur(r, layerShard))
		}
	}
	return clientHop, routerSelf, proxyHop, handler
}

// writeSpans writes the run's spans as tab-separated lines
// (workload, request, layer, start ns, end ns) under .bench_build.
func writeSpans(path string, byWorkload map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, name := range []string{"central", "decentral", "fleet"} {
		for _, s := range byWorkload[name] {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\n", name, s.req, layerNames[s.layer], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
