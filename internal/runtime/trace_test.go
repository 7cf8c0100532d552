package runtime

import (
	"testing"
	"time"

	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// walkSpans visits every span in the tree below s (excluding s itself)
// in depth-first order.
func walkSpans(s *telemetry.Span, visit func(*telemetry.Span)) {
	for _, c := range s.Children() {
		visit(c)
		walkSpans(c, visit)
	}
}

// hopHosts returns the "host" attr of every non-gap span under s.
func hopHosts(s *telemetry.Span) []int {
	var hosts []int
	walkSpans(s, func(c *telemetry.Span) {
		if c.Name() == "gap" {
			return
		}
		if h, ok := c.Attr("host").(int); ok {
			hosts = append(hosts, h)
		}
	})
	return hosts
}

// TestTracedQueryAssemblesFullTree: over the lossless in-process
// transport, a traced query reassembles one complete causal tree — one
// span per hop carrying the executing host, plus the origin's return
// -leg span, and no gap spans.
func TestTracedQueryAssemblesFullTree(t *testing.T) {
	tree, _ := buildTree(t, 16, 0.2, 7)
	cfg := testConfig()
	rt, err := New(tree, cfg, testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	nw := convergedNetwork(t, tree, cfg)
	for _, start := range rt.Hosts()[:4] {
		want, err := nw.Query(start, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		span := telemetry.StartSpan("query")
		res, err := rt.QueryTraced(start, 4, 64, queryWait, span)
		span.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if want.Found() != res.Found() {
			t.Fatalf("start=%d: traced query found=%v, sync found=%v", start, res.Found(), want.Found())
		}
		var gaps, spans int
		walkSpans(span, func(c *telemetry.Span) {
			if c.Name() == "gap" {
				gaps++
			} else {
				spans++
			}
		})
		if gaps != 0 {
			t.Fatalf("start=%d: lossless transport produced %d gap spans", start, gaps)
		}
		// res.Hops forwards = hops 0..res.Hops executed, plus the origin's
		// return-leg span.
		if wantSpans := res.Hops + 2; spans != wantSpans {
			t.Fatalf("start=%d: tree has %d spans, want %d (hops=%d)", start, spans, wantSpans, res.Hops)
		}
		// The hop spans' host attrs must be exactly the forwarding path
		// (plus the origin's return leg).
		hosts := hopHosts(span)
		pathSet := map[int]bool{start: true}
		for _, h := range res.Path {
			pathSet[h] = true
		}
		for _, h := range hosts {
			if !pathSet[h] {
				t.Fatalf("start=%d: span host %d not on query path %v", start, h, res.Path)
			}
		}
		if got := span.Attr("hopEvents"); got != res.Hops+2 {
			t.Fatalf("start=%d: hopEvents attr = %v, want %d", start, got, res.Hops+2)
		}
	}
}

// TestTracedNodeQueryAssemblesTree: the node search propagates and
// reassembles trace context the same way the cluster query does.
func TestTracedNodeQueryAssemblesTree(t *testing.T) {
	tree, _ := buildTree(t, 12, 0.2, 9)
	cfg := testConfig()
	rt, err := New(tree, cfg, testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	hosts := rt.Hosts()
	span := telemetry.StartSpan("nodequery")
	res, err := rt.QueryNodeTraced(hosts[0], []int{hosts[1], hosts[2]}, 64, queryWait, span)
	span.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	walkSpans(span, func(c *telemetry.Span) {
		if c.Name() != "gap" {
			spans++
		}
	})
	if wantSpans := res.Hops + 2; spans != wantSpans {
		t.Fatalf("tree has %d spans, want %d (hops=%d)", spans, wantSpans, res.Hops)
	}
}

// TestTracedQueryGapsNotCorruption: when a lossy transport drops trace
// reports (they share the gossip fault schedule under GossipOnly), the
// reassembled tree degrades to explicit gap spans — the query answer
// stays correct and the surviving spans stay causally grouped.
func TestTracedQueryGapsNotCorruption(t *testing.T) {
	tree, _ := buildTree(t, 16, 0.2, 5)
	cfg := testConfig()
	inner := transport.NewChan(inboxCapacity)
	ft, err := transport.NewFault(inner, transport.FaultConfig{Seed: 17, Drop: 0.6, GossipOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewWithTransport(tree, nil, cfg, testTick, ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(faultSettleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	nw := convergedNetwork(t, tree, cfg)
	sawGap := false
	for i, start := range rt.Hosts() {
		want, err := nw.Query(start, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		span := telemetry.StartSpan("query")
		res, err := rt.QueryTraced(start, 4, 64, queryWait, span)
		span.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if want.Found() != res.Found() {
			t.Fatalf("query %d: dropped trace reports changed the answer: sync found=%v async found=%v",
				i, want.Found(), res.Found())
		}
		spans := 0
		walkSpans(span, func(c *telemetry.Span) {
			if c.Name() == "gap" {
				sawGap = true
				if c.Attr("missingSpan") == nil {
					t.Fatalf("query %d: gap span lacks missingSpan attr", i)
				}
				if len(c.Children()) == 0 {
					t.Fatalf("query %d: gap span has no orphaned children", i)
				}
				return
			}
			spans++
		})
		// Never more spans than a complete trace; drops only remove.
		if spans > res.Hops+2 {
			t.Fatalf("query %d: %d spans exceed complete trace size %d", i, spans, res.Hops+2)
		}
	}
	if !sawGap {
		t.Log("no trace report was dropped by this schedule; gap path not exercised")
	}
}

// TestTCPSplitTracedQuery: a traced query over a runtime split across
// two TCP-connected transports yields one reassembled span tree at the
// origin whose hop spans carry the executing hosts from both halves —
// remote hops report their span events across the process boundary.
func TestTCPSplitTracedQuery(t *testing.T) {
	tree, _ := buildTree(t, 12, 0.2, 11)
	cfg := testConfig()
	nw := convergedNetwork(t, tree, cfg)
	all := nw.Hosts()
	var hostsA, hostsB []int
	for i, h := range all {
		if i%2 == 0 {
			hostsA = append(hostsA, h)
		} else {
			hostsB = append(hostsB, h)
		}
	}
	trA, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0", JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0", JitterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	for _, h := range hostsB {
		trA.AddRoute(h, trB.Addr())
	}
	for _, h := range hostsA {
		trB.AddRoute(h, trA.Addr())
	}
	rtA, err := NewWithTransport(tree, nil, cfg, testTick, trA, hostsA)
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := NewWithTransport(tree, nil, cfg, testTick, trB, hostsB)
	if err != nil {
		t.Fatal(err)
	}
	rtA.Start()
	rtB.Start()
	defer func() {
		rtA.Stop()
		rtB.Stop()
	}()
	settlePair(t, rtA, rtB)

	isA := make(map[int]bool, len(hostsA))
	for _, h := range hostsA {
		isA[h] = true
	}
	crossed := false
	for _, k := range []int{3, 4, 6} {
		span := telemetry.StartSpan("query")
		res, err := rtA.QueryTraced(hostsA[0], k, 64, queryWait, span)
		span.Finish()
		if err != nil {
			t.Fatal(err)
		}
		hosts := hopHosts(span)
		if len(hosts) == 0 {
			t.Fatalf("k=%d: traced split query produced no hop spans", k)
		}
		onPath := map[int]bool{hostsA[0]: true}
		for _, h := range res.Path {
			onPath[h] = true
		}
		for _, h := range hosts {
			if !onPath[h] {
				t.Fatalf("k=%d: span host %d not on path %v", k, h, res.Path)
			}
			if !isA[h] {
				crossed = true // a remote hop's span event crossed TCP
			}
		}
	}
	if !crossed {
		t.Fatal("no traced query forwarded into the remote half; cross-process span reporting not exercised")
	}
}

// TestPendingSweepDeterministic drives the TTL sweep with synthetic
// logical tick values — the injected clock — and proves the pending
// tables bounded: entries at the TTL boundary stay, entries past it are
// swept, each sweep fires a pend_leak anomaly, and the gauge follows.
func TestPendingSweepDeterministic(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 3)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	fl := telemetry.NewFlightRecorder(16)
	var anomalies []telemetry.FlightEvent
	fl.SetAnomalyHook(func(ev telemetry.FlightEvent, _ []telemetry.FlightEvent) {
		anomalies = append(anomalies, ev)
	})
	rt.SetFlight(fl)

	rt.pendMu.Lock()
	rt.pendCluster[1] = pendingCluster{ch: make(chan clusterOutcome, 1), born: 0}
	rt.pendCluster[2] = pendingCluster{ch: make(chan clusterOutcome, 1), born: 10}
	rt.pendNode[3] = pendingNode{ch: make(chan nodeOutcome, 1), born: 0}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()

	// At now = TTL the oldest entries are exactly TTL old: not yet leaks.
	rt.sweepPendingAt(pendTTLTicks)
	if n := rt.pendingReplies(); n != 3 {
		t.Fatalf("entries at the TTL boundary were swept: %d left, want 3", n)
	}
	if len(anomalies) != 0 {
		t.Fatalf("anomalies fired at the boundary: %+v", anomalies)
	}

	// One tick later the born=0 entries are leaks; born=10 survives.
	rt.sweepPendingAt(pendTTLTicks + 1)
	if n := rt.pendingReplies(); n != 1 {
		t.Fatalf("sweep left %d entries, want 1", n)
	}
	if len(anomalies) != 2 {
		t.Fatalf("sweep fired %d anomalies, want 2: %+v", len(anomalies), anomalies)
	}
	for _, a := range anomalies {
		if a.Kind != anomalyPendLeak {
			t.Fatalf("anomaly kind = %q, want %q", a.Kind, anomalyPendLeak)
		}
	}

	// Far future: the table drains completely — boundedness.
	rt.sweepPendingAt(3 * pendTTLTicks)
	if n := rt.pendingReplies(); n != 0 {
		t.Fatalf("tables not bounded: %d entries survive arbitrary age", n)
	}
}

// TestHealthConvergenceMonitor drives refreshHealthAt with synthetic
// ticks: convergence flips on after the quiet window and off the moment
// the version counter moves again.
func TestHealthConvergenceMonitor(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 3)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	rt.refreshHealthAt(1)
	if rt.Converged() {
		t.Fatal("converged before the quiet window elapsed")
	}
	rt.refreshHealthAt(convergedQuietTicks)
	if !rt.Converged() {
		t.Fatal("not converged after a full quiet window with no version change")
	}
	rt.version.Add(1)
	rt.refreshHealthAt(convergedQuietTicks + 1)
	if rt.Converged() {
		t.Fatal("still converged right after a version change")
	}
	rt.refreshHealthAt(2*convergedQuietTicks + 1)
	if !rt.Converged() {
		t.Fatal("did not re-converge after a fresh quiet window")
	}
	h := rt.Health()
	if !h.Converged || h.Hosts != 6 {
		t.Fatalf("health summary inconsistent: %+v", h)
	}
}

// A gossip handled after the monitor read its tick carries a watermark
// newer than that tick: its age is zero, not a wrapped-around uint64.
func TestMaxGossipAgeFreshWatermark(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 3)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	for _, h := range rt.Hosts() {
		p := rt.peerByID(h)
		p.mu.Lock()
		for v := range p.lastGossip {
			p.lastGossip[v] = 10
		}
		p.mu.Unlock()
	}
	if age := rt.maxGossipAge(5); age != 0 {
		t.Fatalf("watermark newer than now: age %d, want 0", age)
	}
	if age := rt.maxGossipAge(12); age != 2 {
		t.Fatalf("age %d, want 2", age)
	}
}

// TestMonitorRunsWithRuntime: the started monitor advances the logical
// clock and reaches the converged state on a settled network without any
// injected ticks — the production path of the same logic the synthetic
// -tick tests pin down.
func TestMonitorRunsWithRuntime(t *testing.T) {
	tree, _ := buildTree(t, 8, 0.2, 3)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(settleMax)
	for !rt.Converged() {
		if time.Now().After(deadline) {
			t.Fatal("monitor never reported convergence on a settled network")
		}
		time.Sleep(testTick)
	}
	if rt.Ticks() == 0 {
		t.Fatal("monitor clock did not advance")
	}
	if age := rt.Health().MaxGossipAgeTicks; age >= staleTicks {
		t.Fatalf("settled network reports stale gossip age %d", age)
	}
}
