package runtime

import (
	"errors"
	"slices"
	"testing"

	"bwcluster/internal/overlay"
	"bwcluster/internal/transport"
)

// A crashed peer's network heals and re-converges to exactly the state
// the synchronous engine computes after the same removals.
func TestRemoveHostHealsToSyncFixedPoint(t *testing.T) {
	tree, _ := buildTree(t, 16, 0.2, 71)
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

	victims := []int{3, 7}
	for _, v := range victims {
		if err := rt.RemoveHost(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Hosts()); got != 14 {
		t.Fatalf("hosts = %d, want 14", got)
	}

	// Reference: the synchronous engine after the same removals.
	nw, err := overlay.NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range victims {
		if err := nw.RemoveHost(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	for _, x := range nw.Hosts() {
		if want, got := nw.Neighbors(x), rt.Neighbors(x); !slices.Equal(want, got) {
			t.Fatalf("adjacency mismatch at %d: sync=%v async=%v", x, want, got)
		}
		for _, m := range nw.Neighbors(x) {
			if want, got := nw.AggrNode(x, m), rt.AggrNode(x, m); !slices.Equal(want, got) {
				t.Fatalf("post-crash aggrNode mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
			if want, got := nw.CRT(x, m), rt.CRT(x, m); !slices.Equal(want, got) {
				t.Fatalf("post-crash CRT mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
		}
	}

	// Queries on the healed network work and avoid the dead hosts.
	res, err := rt.Query(rt.Hosts()[0], 3, 64, queryWait)
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range res.Cluster {
		for _, v := range victims {
			if member == v {
				t.Fatalf("query returned crashed host %d", v)
			}
		}
	}
}

// Eviction repairs the substrate (predtree.Tree.Remove) and re-derives
// the overlay adjacency from the repaired anchor tree; the survivors
// re-converge to exactly the fixed point the synchronous engine reaches
// on the same repaired substrate.
func TestEvictHostRepairsToSyncFixedPoint(t *testing.T) {
	tree, _ := buildTree(t, 16, 0.2, 73)
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

	victims := []int{5, 11}
	for _, v := range victims {
		if err := rt.EvictHost(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Hosts()); got != 14 {
		t.Fatalf("hosts = %d, want 14", got)
	}

	// Reference: the synchronous engine on the already-repaired tree.
	nw, err := overlay.NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	for _, x := range nw.Hosts() {
		if want, got := nw.Neighbors(x), rt.Neighbors(x); !slices.Equal(want, got) {
			t.Fatalf("adjacency mismatch at %d: sync=%v async=%v", x, want, got)
		}
		for _, m := range nw.Neighbors(x) {
			if want, got := nw.AggrNode(x, m), rt.AggrNode(x, m); !slices.Equal(want, got) {
				t.Fatalf("post-evict aggrNode mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
			if want, got := nw.CRT(x, m), rt.CRT(x, m); !slices.Equal(want, got) {
				t.Fatalf("post-evict CRT mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
		}
	}
	res, err := rt.Query(rt.Hosts()[0], 3, 64, queryWait)
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range res.Cluster {
		for _, v := range victims {
			if member == v {
				t.Fatalf("query returned evicted host %d", v)
			}
		}
	}
}

// Removing a host cancels the pending queries it originated with
// ErrOriginRemoved — the callers fail fast instead of blocking out
// their timeout — while other origins' entries stay pending.
func TestRemoveHostCancelsPendingQueries(t *testing.T) {
	tree, _ := buildTree(t, 8, 0.2, 74)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	hosts := rt.Hosts()
	victim, other := hosts[2], hosts[3]

	ch := make(chan outcome, 1)
	nch := make(chan outcome, 1)
	keep := make(chan outcome, 1)
	rt.pendMu.Lock()
	rt.pend[91] = pending{ch: ch, answer: transport.KindResult, origin: victim, born: 0}
	rt.pend[92] = pending{ch: nch, answer: transport.KindNodeResult, origin: victim, born: 0}
	rt.pend[93] = pending{ch: keep, answer: transport.KindResult, origin: other, born: 0}
	rt.updatePendingGaugeLocked()
	rt.pendMu.Unlock()

	if err := rt.RemoveHost(victim); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ch:
		if !errors.Is(out.err, ErrOriginRemoved) {
			t.Fatalf("cluster outcome err = %v, want ErrOriginRemoved", out.err)
		}
	default:
		t.Fatal("victim's pending cluster query was not canceled")
	}
	select {
	case out := <-nch:
		if !errors.Is(out.err, ErrOriginRemoved) {
			t.Fatalf("node outcome err = %v, want ErrOriginRemoved", out.err)
		}
	default:
		t.Fatal("victim's pending node query was not canceled")
	}
	select {
	case out := <-keep:
		t.Fatalf("other origin's query was canceled: %+v", out)
	default:
	}
	if n := rt.pendingReplies(); n != 1 {
		t.Fatalf("pending replies = %d, want 1 (the surviving origin's)", n)
	}
}

func TestRemoveHostValidation(t *testing.T) {
	tree, _ := buildTree(t, 4, 0, 72)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.RemoveHost(99); err == nil {
		t.Error("unknown host should fail")
	}
	hosts := rt.Hosts()
	for _, h := range hosts[:3] {
		if err := rt.RemoveHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.RemoveHost(hosts[3]); err == nil {
		t.Error("removing the last host should fail")
	}
}
