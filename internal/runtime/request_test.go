package runtime

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"bwcluster/internal/overlay"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// settledRuntime starts a runtime over a 16-host tree and waits for its
// fixed point, returning it with the converged synchronous network.
func settledRuntime(t *testing.T) (*Runtime, *overlay.Network) {
	t.Helper()
	tree, _ := buildTree(t, 16, 0.2, 81)
	cfg := testConfig()
	nw := convergedNetwork(t, tree, cfg)
	rt, err := New(tree, cfg, testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	return rt, nw
}

// anomalies records every anomaly kind and detail the runtime fires.
func anomalies(rt *Runtime) *[]telemetry.FlightEvent {
	var got []telemetry.FlightEvent
	fl := telemetry.NewFlightRecorder(16)
	fl.SetAnomalyHook(func(ev telemetry.FlightEvent, _ []telemetry.FlightEvent) { got = append(got, ev) })
	rt.SetFlight(fl)
	return &got
}

// A cluster query whose first forward the transport rejects (the next
// hop's endpoint is gone) fails over to the forwarder's not-found
// answer, which reports the forwarder, the forward and the path so far.
func TestClusterForwardFailover(t *testing.T) {
	rt, nw := settledRuntime(t)
	for _, start := range rt.Hosts() {
		for k := 2; k <= 8; k++ {
			want, err := nw.Query(start, k, 8)
			if err != nil {
				t.Fatal(err)
			}
			if want.Hops == 0 {
				continue
			}
			_ = rt.tr.Unregister(want.Path[1])
			got, err := rt.Query(start, k, 8, queryWait)
			if err != nil {
				t.Fatal(err)
			}
			if got.Found() || got.Answered != start || got.Hops != 1 || !slices.Equal(got.Path, []int{start}) {
				t.Fatalf("start=%d k=%d with hop %d gone: got %+v, want not-found from %d after 1 hop, path [%d]",
					start, k, want.Path[1], got, start, start)
			}
			if n := rt.pendingReplies(); n != 0 {
				t.Fatalf("pending replies = %d after the failover answer, want 0", n)
			}
			return
		}
	}
	t.Fatal("no settled query forwards; pick another tree")
}

// A node search whose first forward the transport rejects fails over to
// the forwarder's not-found answer.
func TestNodeForwardFailover(t *testing.T) {
	rt, _ := settledRuntime(t)
	hosts := rt.Hosts()
	for _, start := range hosts {
		for _, member := range hosts {
			set := []int{member}
			p := rt.peerByID(start)
			p.mu.Lock()
			_, _, next := p.core.ClimbHop(rt.table.Load(), set, -1, -1, math.Inf(1))
			p.mu.Unlock()
			if next == -1 {
				continue
			}
			_ = rt.tr.Unregister(next)
			got, err := rt.QueryNode(start, set, 64, queryWait)
			if err != nil {
				t.Fatal(err)
			}
			if want := (overlay.NodeResult{Node: -1, Hops: 1, Answered: start}); got != want {
				t.Fatalf("start=%d set=%v with hop %d gone: got %+v, want %+v", start, set, next, got, want)
			}
			if n := rt.pendingReplies(); n != 0 {
				t.Fatalf("pending replies = %d after the failover answer, want 0", n)
			}
			return
		}
	}
	t.Fatal("no node search forwards; pick another tree")
}

// A request nobody answers times out with an error and a query_timeout
// anomaly, and leaves no pending entry behind. The peers never start,
// so the start peer's inbox accepts the request and nothing handles it.
func TestRequestTimeout(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 82)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	got := anomalies(rt)
	start := rt.Hosts()[0]
	if _, err := rt.Query(start, 3, 8, 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("cluster query err = %v, want a timeout", err)
	}
	if _, err := rt.QueryNode(start, []int{start}, 8, 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("node query err = %v, want a timeout", err)
	}
	if len(*got) != 2 || (*got)[0].Kind != anomalyQueryTO || (*got)[1].Kind != anomalyQueryTO {
		t.Fatalf("anomalies = %+v, want two %s", *got, anomalyQueryTO)
	}
	if n := rt.pendingReplies(); n != 0 {
		t.Fatalf("pending replies = %d after timeouts, want 0", n)
	}
}

// A start peer whose endpoint is gone rejects the request: the caller
// gets the transport's error at once and the entry is dropped.
func TestRequestRejectedStart(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 83)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	start := rt.Hosts()[0]
	_ = rt.tr.Unregister(start)
	if _, err := rt.Query(start, 3, 8, queryWait); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("cluster query err = %v, want ErrUnknownPeer", err)
	}
	if _, err := rt.QueryNode(start, []int{start}, 8, queryWait); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("node query err = %v, want ErrUnknownPeer", err)
	}
	if n := rt.pendingReplies(); n != 0 {
		t.Fatalf("pending replies = %d after rejected sends, want 0", n)
	}
}

// An answer of the other family's kind, or one without its payload,
// leaves the entry pending; the matching answer resolves it.
func TestResolveIgnoresWrongKind(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 84)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	cluster, node := make(chan outcome, 1), make(chan outcome, 1)
	rt.pendMu.Lock()
	rt.pend[1] = pending{ch: cluster, answer: transport.KindResult}
	rt.pend[2] = pending{ch: node, answer: transport.KindNodeResult}
	rt.pendMu.Unlock()

	rt.resolve(transport.Message{Kind: transport.KindNodeResult, NodeResult: &transport.NodeResult{ID: 1}})
	rt.resolve(transport.Message{Kind: transport.KindResult, Result: &transport.Result{ID: 2}})
	rt.resolve(transport.Message{Kind: transport.KindResult})
	if n := rt.pendingReplies(); n != 2 || len(cluster) != 0 || len(node) != 0 {
		t.Fatalf("wrong-kind answers resolved entries: %d pending, want 2", n)
	}

	rt.resolve(transport.Message{Kind: transport.KindResult, Result: &transport.Result{ID: 1, Answered: 4}})
	rt.resolve(transport.Message{Kind: transport.KindNodeResult, NodeResult: &transport.NodeResult{ID: 2, Node: 5}})
	if out := <-cluster; out.m.Result.Answered != 4 {
		t.Fatalf("cluster entry resolved with %+v", out.m)
	}
	if out := <-node; out.m.NodeResult.Node != 5 {
		t.Fatalf("node entry resolved with %+v", out.m)
	}
	if n := rt.pendingReplies(); n != 0 {
		t.Fatalf("pending replies = %d after matching answers, want 0", n)
	}
}

// A swept entry's anomaly reports its id in full, also above 2^63.
func TestPendingSweepReportsFullID(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 85)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	got := anomalies(rt)
	rt.pendMu.Lock()
	rt.pend[1<<63|5] = pending{ch: make(chan outcome, 1), answer: transport.KindNodeResult}
	rt.pendMu.Unlock()
	rt.sweepPendingAt(pendTTLTicks + 1)
	if len(*got) != 1 || (*got)[0].Detail != "node query id=9223372036854775813 swept" {
		t.Fatalf("sweep anomalies = %+v, want one naming id 9223372036854775813", *got)
	}
}
