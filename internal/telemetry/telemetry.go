// Package telemetry is the repo's zero-dependency observability
// subsystem: an atomic metrics registry (counters, gauges, fixed-bucket
// histograms), Prometheus text-format exposition, and lightweight trace
// spans for query routing.
//
// Design constraints, in order:
//
//   - Hot paths are lock-free. Counter.Add, Gauge.Set and
//     Histogram.Observe are a handful of atomic operations with zero
//     allocations, so instrumentation can sit inside the O(n^3)
//     candidate scans and the per-message gossip paths without becoming
//     the thing the metrics measure.
//   - Instrumentation never perturbs results. No metric touches a
//     rand.Rand or feeds back into algorithm state; the seed-determinism
//     regression tests run with telemetry enabled.
//   - Stdlib only, like the rest of the repo.
//
// Metrics register on a package-level default registry (Default) so that
// internal packages can instrument themselves without plumbing; bwc-serve
// exposes that registry at /metrics.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A metric is anything the registry can expose.
type metric interface {
	// name returns the family name (without label suffix).
	metricName() string
	// write appends the family's exposition lines (HELP/TYPE/samples).
	write(b *strings.Builder)
}

// Registry holds named metric families and renders them in Prometheus
// text format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// std is the process-wide default registry the instrumented packages
// register on and bwc-serve exposes.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// register adds m under its name, panicking on duplicates: every family
// is registered once, from a package-level var, so a collision is a
// programming error worth failing loudly on.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.metricName()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.metrics[name] = m
}

// checkName enforces the Prometheus metric-name charset so exposition is
// always parseable.
func checkName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
	}
}

// Counter is a monotonically increasing integer. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter creates and registers a counter on the default registry.
func NewCounter(name, help string) *Counter { return std.NewCounter(name, help) }

// NewCounter creates and registers a counter on r.
func (r *Registry) NewCounter(name, help string) *Counter {
	checkName(name)
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (negative n panics: counters only go
// up).
func (c *Counter) Add(n int) {
	if n < 0 {
		panic("telemetry: counter decrease")
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
// Kept: test seam: counter tests read the count without the exposition.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(b *strings.Builder) {
	writeHeader(b, c.name, c.help, "counter")
	fmt.Fprintf(b, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a float64 that can go up and down. Safe for concurrent use;
// Set is a single atomic store, Add a CAS loop.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // math.Float64bits
}

// NewGauge creates and registers a gauge on the default registry.
func NewGauge(name, help string) *Gauge { return std.NewGauge(name, help) }

// NewGauge creates and registers a gauge on r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	checkName(name)
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(b *strings.Builder) {
	writeHeader(b, g.name, g.help, "gauge")
	fmt.Fprintf(b, "%s %s\n", g.name, formatFloat(g.Value()))
}

// Histogram counts observations into fixed upper-bound buckets
// (cumulative at exposition time, Prometheus-style, with an implicit
// +Inf bucket). Observe is lock-free: one atomic add for the bucket, one
// for the count, and a CAS loop for the float sum.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds, +Inf excluded
	buckets    []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// NewHistogram creates and registers a histogram on the default
// registry. Bounds must be strictly ascending upper bucket bounds
// (without +Inf, which is implicit).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return std.NewHistogram(name, help, bounds)
}

// NewHistogram creates and registers a histogram on r.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	checkName(name)
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1), // last = +Inf
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (<= ~20) and branch-predictable,
	// beating binary search at this size without allocating.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(b *strings.Builder) {
	writeHeader(b, h.name, h.help, "histogram")
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", h.name, cum)
}

// CounterVec is a family of counters distinguished by one fixed label
// set. Label lookup takes a read lock and one map access; child counters
// are created on first use and cached, so steady-state increments cost a
// lock-free atomic add after a read-locked lookup.
type CounterVec struct {
	name, help string
	labels     []string

	mu       sync.RWMutex
	children map[string]*vecChild
}

type vecChild struct {
	values []string
	v      atomic.Uint64
}

// NewCounterVec creates and registers a labeled counter family on the
// default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return std.NewCounterVec(name, help, labels...)
}

// NewCounterVec creates and registers a labeled counter family on r.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	checkName(name)
	if len(labels) == 0 {
		panic("telemetry: counter vec needs at least one label")
	}
	v := &CounterVec{
		name: name, help: help,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*vecChild),
	}
	r.register(v)
	return v
}

// Inc increments the child selected by the label values (which must
// match the declared labels in number).
func (v *CounterVec) Inc(values ...string) { v.Add(1, values...) }

// Add increases the child selected by the label values by n (negative n
// panics: counters only go up).
func (v *CounterVec) Add(n int, values ...string) {
	if n < 0 {
		panic("telemetry: counter decrease")
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d",
			v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if !ok {
		v.mu.Lock()
		if c, ok = v.children[key]; !ok {
			c = &vecChild{values: append([]string(nil), values...)}
			v.children[key] = c
		}
		v.mu.Unlock()
	}
	c.v.Add(uint64(n))
}

// Value returns the count for one label combination (0 if never
// incremented).
func (v *CounterVec) Value(values ...string) uint64 {
	key := strings.Join(values, "\x1f")
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c, ok := v.children[key]; ok {
		return c.v.Load()
	}
	return 0
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) write(b *strings.Builder) {
	writeHeader(b, v.name, v.help, "counter")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := v.children[k]
		b.WriteString(v.name)
		b.WriteByte('{')
		for i, lv := range c.values {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=\"%s\"", v.labels[i], escapeLabelValue(lv))
		}
		fmt.Fprintf(b, "} %d\n", c.v.Load())
	}
	v.mu.RUnlock()
}

// writeHeader emits the HELP/TYPE preamble of one family.
func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation; integral values without exponent).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// ExponentialBuckets returns n strictly ascending bucket bounds starting
// at start and growing by factor.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are the default latency bounds (seconds): 100µs to
// ~26s, factor 2.5 — wide enough for both in-memory scans and full
// system builds.
func DurationBuckets() []float64 { return ExponentialBuckets(100e-6, 2.5, 14) }

// HopBuckets are the default bounds for overlay hop counts; the paper's
// evaluation (Fig. 6) sees means of 2-3 hops, so single-hop resolution
// at the low end matters.
func HopBuckets() []float64 { return []float64{0, 1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32} }
