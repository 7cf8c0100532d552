package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// maxFlightDetail bounds the free-text payload of one flight event. The
// recorder's memory use must be provable from its capacity alone, so
// every variable-length field is truncated at append time — a caller
// cannot make the ring grow by recording a huge detail string.
const maxFlightDetail = 160

// FlightEvent is one entry of the flight recorder: a structured,
// bounded-size record of something the overlay did (a send, a drop, a
// reconnect, a query hop, an anomaly). All fields are plain data so a
// snapshot can be serialized for a post-mortem artifact.
type FlightEvent struct {
	// Seq is the global append sequence number (monotonic; gaps in a
	// snapshot mean the ring wrapped and older events were evicted).
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock append time.
	UnixNano int64 `json:"unixNano"`
	// Kind classifies the event ("send", "drop", "reconnect", "hop",
	// "anomaly", ...). Callers pass package constants so the kind set
	// stays enumerable.
	Kind string `json:"kind"`
	// Host is the local peer or process the event happened at (-1 when
	// not applicable).
	Host int `json:"host"`
	// Peer is the remote peer involved (-1 when not applicable).
	Peer int `json:"peer"`
	// Detail is free text, truncated to a fixed bound at append.
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a fixed-size black-box ring buffer of recent
// structured events. Append is O(1) under a single short mutex hold and
// never allocates after construction (the event slice is laid out once
// at capacity); the ring simply overwrites the oldest slot when full,
// so memory use is bounded by the configured capacity times the
// fixed-size event struct (details are truncated to maxFlightDetail).
//
// A nil *FlightRecorder is a valid no-op receiver for every method, so
// instrumented code can thread an optional recorder without nil checks
// at every site — unrecorded paths pay one nil comparison.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightEvent // guarded by mu; fixed length == capacity
	next  uint64        // guarded by mu; total appends so far
	hook  func(FlightEvent, []FlightEvent)
	clock func() int64
}

// NewFlightRecorder returns a recorder holding the last capacity events
// (non-positive: 1024).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &FlightRecorder{
		buf:   make([]FlightEvent, capacity),
		clock: func() int64 { return time.Now().UnixNano() },
	}
}

// flightStd is the process-wide default recorder, exposed by the serving
// binaries (/v1/flight, bwc-sim -flight-dump). Library packages must not
// reach for it — they receive a recorder through explicit plumbing
// (SetFlight / config fields), which bwc-vet's telemetry check enforces.
var flightStd = NewFlightRecorder(4096)

// FlightDefault returns the process-wide flight recorder.
func FlightDefault() *FlightRecorder { return flightStd }

// SetClock replaces the recorder's timestamp source (tests inject a
// deterministic clock). The function must be safe for concurrent use.
// Kept: test seam: tests drive the recorder's clock.
func (r *FlightRecorder) SetClock(clock func() int64) {
	if r == nil || clock == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// SetAnomalyHook installs fn to run on every Anomaly call, receiving the
// anomaly event and a snapshot of the ring at that moment — the
// automatic black-box dump. The hook runs synchronously on the caller's
// goroutine (anomalies are rare by definition); a nil fn removes it.
// Kept: test seam: tests observe anomaly snapshots.
func (r *FlightRecorder) SetAnomalyHook(fn func(anomaly FlightEvent, snapshot []FlightEvent)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hook = fn
	r.mu.Unlock()
}

// Cap returns the configured capacity (0 for a nil recorder).
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Seq returns the total number of events ever appended.
func (r *FlightRecorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Record appends one event, overwriting the oldest when the ring is
// full. kind should be a package constant; detail is truncated to the
// recorder's fixed per-event bound.
func (r *FlightRecorder) Record(kind string, host, peer int, detail string) {
	if r == nil {
		return
	}
	if len(detail) > maxFlightDetail {
		detail = detail[:maxFlightDetail]
	}
	r.mu.Lock()
	ev := FlightEvent{
		Seq:      r.next,
		UnixNano: r.clock(),
		Kind:     kind,
		Host:     host,
		Peer:     peer,
		Detail:   detail,
	}
	r.buf[r.next%uint64(len(r.buf))] = ev
	r.next++
	r.mu.Unlock()
}

// Anomaly records an anomaly event ("query_timeout", "reconnect_storm",
// "fixedpoint_stall", ...) and fires the dump hook with the ring
// snapshot, giving post-mortems the black-box record leading up to the
// problem.
func (r *FlightRecorder) Anomaly(kind string, host, peer int, detail string) {
	if r == nil {
		return
	}
	if len(detail) > maxFlightDetail {
		detail = detail[:maxFlightDetail]
	}
	r.mu.Lock()
	ev := FlightEvent{
		Seq:      r.next,
		UnixNano: r.clock(),
		Kind:     kind,
		Host:     host,
		Peer:     peer,
		Detail:   detail,
	}
	r.buf[r.next%uint64(len(r.buf))] = ev
	r.next++
	hook := r.hook
	var snap []FlightEvent
	if hook != nil {
		snap = r.snapshotLocked()
	}
	r.mu.Unlock()
	if hook != nil {
		hook(ev, snap)
	}
}

// Snapshot returns a copy of the retained events, oldest first. The
// copy's length is min(appends, capacity); the recorder itself is
// untouched, so snapshots are safe at any time including inside tests
// racing against writers.
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// snapshotLocked copies the live window of the ring, oldest first.
func (r *FlightRecorder) snapshotLocked() []FlightEvent {
	n := r.next
	capU := uint64(len(r.buf))
	count := n
	if count > capU {
		count = capU
	}
	out := make([]FlightEvent, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, r.buf[i%capU])
	}
	return out
}

// WriteTo renders the retained events as one line each (sequence,
// timestamp, kind, host, peer, detail) — the dump format used by
// /v1/flight's text mode, bwc-sim -flight-dump and the CI failure
// artifact.
func (r *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, ev := range r.Snapshot() {
		n, err := fmt.Fprintf(w, "%8d %s %-14s host=%-4d peer=%-4d %s\n",
			ev.Seq, time.Unix(0, ev.UnixNano).UTC().Format("15:04:05.000000"),
			ev.Kind, ev.Host, ev.Peer, ev.Detail)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
