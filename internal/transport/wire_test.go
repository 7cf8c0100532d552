package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"time"

	"bwcluster/internal/telemetry"
)

// TestWireVersionRoundTrip: a current-version frame round-trips with the
// trace context and trace-event payloads intact.
func TestWireVersionRoundTrip(t *testing.T) {
	m := Message{
		Kind: KindQuery, From: 1, To: 2,
		Query: &Query{ID: 9, Origin: 1, K: 3, Path: []int{1}},
		Trace: &TraceContext{TraceID: 9, ParentSpan: 77, Hop: 2, Origin: 1, SentUnixNano: 123},
	}
	frame, err := encodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != wireVersion {
		t.Fatalf("frame version byte = %d, want %d", frame[4], wireVersion)
	}
	if frame[5] != frameTraced {
		t.Fatalf("traced frame tag = %d, want %d", frame[5], frameTraced)
	}
	got, _, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, m)
	}

	ev := Message{
		Kind: KindTrace, From: 2, To: 1,
		Event: &telemetry.SpanEvent{TraceID: 9, SpanID: 100, ParentID: 77, Host: 2, Peer: 1,
			Hop: 2, Kind: "query", StartUnixNano: 5, DurationNs: 7, QueueNs: 3, Note: "forward"},
	}
	frame, err = encodeFrame(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("trace event round trip differs:\n got %+v\nwant %+v", got, ev)
	}
}

// TestWireLeanFrames: untraced messages ship as lean frames that carry
// no trace schema at all — gob type descriptors name the types they
// describe, so the trace structs' names appearing in an untraced frame
// would mean every gossip message pays for tracing even when it is off.
func TestWireLeanFrames(t *testing.T) {
	gossip := Message{Kind: KindNodeInfo, From: 3, To: 7, Nodes: []int{1, 2, 3, 4, 5}}
	frame, err := encodeFrame(gossip)
	if err != nil {
		t.Fatal(err)
	}
	if frame[5] != frameLean {
		t.Fatalf("untraced frame tag = %d, want %d", frame[5], frameLean)
	}
	if bytes.Contains(frame, []byte("TraceContext")) || bytes.Contains(frame, []byte("SpanEvent")) {
		t.Fatal("untraced frame carries trace type descriptors")
	}
	got, _, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, gossip) {
		t.Fatalf("lean round trip differs:\n got %+v\nwant %+v", got, gossip)
	}

	traced := gossip
	traced.Trace = &TraceContext{TraceID: 1, Origin: 3}
	big, err := encodeFrame(traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(big) {
		t.Fatalf("lean frame (%d bytes) not smaller than traced frame (%d bytes)", len(frame), len(big))
	}
}

// TestWireSnapshotFrames: snapshot chunks ride their own frame tag and
// round-trip intact, while lean frames stay free of the snapshot
// schema — the per-tick gossip path must not pay a descriptor tax for
// the rare replication stream (the same bargain frameTraced strikes
// for trace state).
func TestWireSnapshotFrames(t *testing.T) {
	snap := Message{
		Kind: KindSnapshot, From: 1, To: 1000,
		Snapshot: &Snapshot{ID: 42, Epoch: 7, Seq: 2, Total: 5, Data: []byte("chunk-bytes")},
	}
	frame, err := encodeFrame(snap)
	if err != nil {
		t.Fatal(err)
	}
	if frame[5] != frameSnapshot {
		t.Fatalf("snapshot frame tag = %d, want %d", frame[5], frameSnapshot)
	}
	got, _, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot round trip differs:\n got %+v\nwant %+v", got, snap)
	}

	lean, err := encodeFrame(Message{Kind: KindCRT, From: 3, To: 7, CRT: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(lean, []byte("Snapshot")) {
		t.Fatal("lean frame carries the snapshot type descriptor")
	}
	if KindSnapshot.BestEffort() || KindSnapshot.Gossip() {
		t.Fatal("snapshot chunks must be reliable: never shed, never coalesced")
	}
	if got := KindSnapshot.String(); got != "snapshot" {
		t.Errorf("KindSnapshot label = %q", got)
	}
}

// TestWireRejectsUnknownTag: a frame with an unknown payload tag fails
// decisively instead of being fed to the wrong gob type.
func TestWireRejectsUnknownTag(t *testing.T) {
	frame, err := encodeFrame(Message{Kind: KindQuery, Query: &Query{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	frame[5] = 0x7f
	if _, _, err := readFrame(bytes.NewReader(frame)); err == nil ||
		!strings.Contains(err.Error(), "payload tag") {
		t.Fatalf("unknown payload tag accepted or wrong error: %v", err)
	}
}

// TestWireVersionRejectsFuture: a frame declaring a version this build
// does not speak is rejected at the header, before gob sees any bytes.
func TestWireVersionRejectsFuture(t *testing.T) {
	frame, err := encodeFrame(Message{Kind: KindQuery, Query: &Query{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = wireVersion + 1
	if _, _, err := readFrame(bytes.NewReader(frame)); err == nil ||
		!strings.Contains(err.Error(), "wire version") {
		t.Fatalf("future version accepted or wrong error: %v", err)
	}
}

// TestWireVersionRejectsLegacy: a v1 frame (4-byte length, no version
// byte, gob body) must fail decisively — the byte where v2 expects the
// version is the first gob byte, which never matches.
func TestWireVersionRejectsLegacy(t *testing.T) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(Message{Kind: KindQuery, Query: &Query{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	legacy := make([]byte, 4+body.Len())
	binary.BigEndian.PutUint32(legacy, uint32(body.Len()))
	copy(legacy[4:], body.Bytes())
	if _, _, err := readFrame(bytes.NewReader(legacy)); err == nil {
		t.Fatal("legacy unversioned frame was accepted")
	}
}

// TestKindBestEffort pins the shed-under-pressure scope: gossip and
// trace reports are best-effort, queries and results never are.
func TestKindBestEffort(t *testing.T) {
	for _, k := range []Kind{KindNodeInfo, KindCRT, KindTrace} {
		if !k.BestEffort() {
			t.Errorf("%v must be best-effort", k)
		}
	}
	for _, k := range []Kind{KindQuery, KindNodeQuery, KindResult, KindNodeResult} {
		if k.BestEffort() {
			t.Errorf("%v must not be best-effort", k)
		}
	}
	if got := KindTrace.String(); got != "trace" {
		t.Errorf("KindTrace label = %q", got)
	}
}

// TestChanFlightRecords: a wired ChanTransport records non-gossip
// deliveries and drops in the flight ring, and skips gossip volume.
func TestChanFlightRecords(t *testing.T) {
	tr := NewChan(2)
	defer tr.Close()
	fl := telemetry.NewFlightRecorder(32)
	tr.SetFlight(fl)
	if _, err := tr.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{Kind: KindQuery, From: 1, To: 2, Query: &Query{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.TrySend(Message{Kind: KindNodeInfo, From: 1, To: 2}); err != nil {
		t.Fatal(err) // fills the inbox; gossip must not be recorded
	}
	if err := tr.TrySend(Message{Kind: KindResult, From: 1, To: 2, Result: &Result{ID: 1}}); err == nil {
		t.Fatal("expected inbox-full drop")
	}
	snap := fl.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("flight holds %d events, want send+drop: %+v", len(snap), snap)
	}
	if snap[0].Kind != "send" || snap[0].Host != 1 || snap[0].Peer != 2 || snap[0].Detail != "query" {
		t.Errorf("send event = %+v", snap[0])
	}
	if snap[1].Kind != "drop" || !strings.Contains(snap[1].Detail, "inbox_full") {
		t.Errorf("drop event = %+v", snap[1])
	}
}

// TestFaultGossipOnlyFaultsTraceReports: under GossipOnly, trace
// reports share the gossip fault schedule (their loss is survivable as
// a trace gap) while queries still pass through unfaulted and do not
// consume schedule slots.
func TestFaultGossipOnlyFaultsTraceReports(t *testing.T) {
	inner := NewChan(8)
	ft, err := NewFault(inner, FaultConfig{Seed: 1, Drop: 0.5, GossipOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	fl := telemetry.NewFlightRecorder(32)
	ft.SetFlight(fl)
	inbox, err := ft.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	// Queries never consume fault slots under GossipOnly, so the first
	// trace report must see schedule slot 0 regardless of query traffic.
	if err := ft.Send(Message{Kind: KindQuery, From: 1, To: 2, Query: &Query{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, inbox, time.Second)
	dec := ft.DecisionAt(0)
	err = ft.TrySend(Message{Kind: KindTrace, From: 1, To: 2, Event: &telemetry.SpanEvent{TraceID: 1, SpanID: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Drop {
		select {
		case m := <-inbox:
			t.Fatalf("dropped trace report was delivered: %+v", m)
		case <-time.After(50 * time.Millisecond):
		}
		found := false
		for _, ev := range fl.Snapshot() {
			if ev.Kind == "fault" && strings.Contains(ev.Detail, "drop trace") {
				found = true
			}
		}
		if !found {
			t.Fatalf("trace drop not in flight ring: %+v", fl.Snapshot())
		}
	} else {
		m := recvOne(t, inbox, time.Second)
		if m.Kind != KindTrace {
			t.Fatalf("got %v, want trace", m.Kind)
		}
	}
}

// TestFaultSetFlightForwards: wiring the fault injector wires the inner
// transport too, so one SetFlight covers the whole stack.
func TestFaultSetFlightForwards(t *testing.T) {
	inner := NewChan(1)
	ft, err := NewFault(inner, FaultConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	fl := telemetry.NewFlightRecorder(8)
	ft.SetFlight(fl)
	if _, err := ft.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(Message{Kind: KindQuery, From: 1, To: 2, Query: &Query{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	snap := fl.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "send" {
		t.Fatalf("inner transport did not record through forwarded recorder: %+v", snap)
	}
}

// TestTCPReconnectStormAnomaly: a persistently unreachable route drives
// the writer's consecutive-failure count past the storm threshold,
// which must fire the flight recorder's anomaly dump exactly once per
// crossing.
func TestTCPReconnectStormAnomaly(t *testing.T) {
	tr, err := NewTCP(TCPConfig{
		Listen:      "127.0.0.1:0",
		DialTimeout: 50 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fl := telemetry.NewFlightRecorder(64)
	anomaly := make(chan telemetry.FlightEvent, 4)
	fl.SetAnomalyHook(func(ev telemetry.FlightEvent, _ []telemetry.FlightEvent) {
		anomaly <- ev
	})
	tr.SetFlight(fl)
	// Port 1 on loopback refuses connections immediately.
	tr.AddRoute(99, "127.0.0.1:1")
	if err := tr.TrySend(Message{Kind: KindQuery, From: 0, To: 99, Query: &Query{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-anomaly:
		if ev.Kind != "reconnect_storm" {
			t.Fatalf("anomaly kind = %q", ev.Kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no reconnect_storm anomaly fired")
	}
	if tr.Reconnects() < reconnectStormAttempts {
		t.Fatalf("Reconnects() = %d, want >= %d", tr.Reconnects(), reconnectStormAttempts)
	}
}
