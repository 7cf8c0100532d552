package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/testutil"
	"bwcluster/internal/transport"
)

const (
	testTick    = time.Millisecond
	settleQuiet = 40 * time.Millisecond
	settleMax   = 15 * time.Second
	queryWait   = 5 * time.Second
)

func testConfig() overlay.Config {
	return overlay.Config{NCut: 4, Classes: []float64{1, 2, 4, 8, 16, 32, 64}}
}

func buildTree(t testing.TB, n int, noise float64, seed int64) (*predtree.Tree, *metric.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	o := testutil.NoisyTreeMetric(n, noise, rng)
	tree, err := predtree.Build(o, 100, predtree.SearchFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tree, o
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, testConfig(), testTick); err == nil {
		t.Error("nil tree should fail")
	}
	tree, _ := buildTree(t, 5, 0, 1)
	if _, err := New(tree, overlay.Config{NCut: 0, Classes: []float64{1}}, testTick); err == nil {
		t.Error("invalid config should fail")
	}
}

// The async runtime must settle to exactly the fixed point the synchronous
// engine computes: same aggrNode sets, same CRTs, peer by peer.
func TestAsyncMatchesSynchronousFixedPoint(t *testing.T) {
	tree, _ := buildTree(t, 18, 0.2, 2)
	cfg := testConfig()

	nw, err := overlay.NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}

	rt, err := New(tree, cfg, testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}

	for _, x := range nw.Hosts() {
		wantSelf := nw.SelfCRT(x)
		gotSelf := rt.SelfCRT(x)
		if !slices.Equal(wantSelf, gotSelf) {
			t.Fatalf("selfCRT mismatch at %d: sync=%v async=%v", x, wantSelf, gotSelf)
		}
		for _, m := range nw.Neighbors(x) {
			if want, got := nw.AggrNode(x, m), rt.AggrNode(x, m); !slices.Equal(want, got) {
				t.Fatalf("aggrNode mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
			if want, got := nw.CRT(x, m), rt.CRT(x, m); !slices.Equal(want, got) {
				t.Fatalf("CRT mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
		}
	}
}

// Settled async queries agree with the synchronous engine on
// found/not-found, and their clusters satisfy the snapped constraint.
func TestAsyncQueryAgreesWithSync(t *testing.T) {
	tree, _ := buildTree(t, 20, 0.2, 3)
	cfg := testConfig()
	nw, err := overlay.NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	rt, err := New(tree, cfg, testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	hosts := rt.Hosts()
	for trial := 0; trial < 25; trial++ {
		start := hosts[rng.Intn(len(hosts))]
		k := 2 + rng.Intn(6)
		l := cfg.Classes[rng.Intn(len(cfg.Classes))]
		syncRes, err := nw.Query(start, k, l)
		if err != nil {
			t.Fatal(err)
		}
		asyncRes, err := rt.Query(start, k, l, queryWait)
		if err != nil {
			t.Fatal(err)
		}
		// Both engines run overlay's Algorithm 4 step over the same
		// settled state, so the whole route and answer must agree.
		if !slices.Equal(syncRes.Cluster, asyncRes.Cluster) || !slices.Equal(syncRes.Path, asyncRes.Path) ||
			syncRes.Hops != asyncRes.Hops || syncRes.Answered != asyncRes.Answered || syncRes.Class != asyncRes.Class {
			t.Fatalf("start=%d k=%d l=%v: sync=%+v async=%+v", start, k, l, syncRes, asyncRes)
		}
		if len(asyncRes.Path) != asyncRes.Hops+1 || asyncRes.Path[0] != start {
			t.Fatalf("async path %v inconsistent with hops %d, start %d",
				asyncRes.Path, asyncRes.Hops, start)
		}
		if asyncRes.Found() {
			for i := 0; i < len(asyncRes.Cluster); i++ {
				for j := i + 1; j < len(asyncRes.Cluster); j++ {
					d := rt.table.Load().Between(asyncRes.Cluster[i], asyncRes.Cluster[j])
					if d > asyncRes.Class*(1+1e-9) {
						t.Fatalf("cluster pair at %v > class %v", d, asyncRes.Class)
					}
				}
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	tree, _ := buildTree(t, 8, 0, 5)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if _, err := rt.Query(999, 3, 8, queryWait); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := rt.Query(0, 1, 8, queryWait); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := rt.Query(0, 3, 0.01, queryWait); !errors.Is(err, overlay.ErrNoClass) {
		t.Errorf("too-tight constraint err = %v, want ErrNoClass", err)
	}
}

// Churn: peers joining a live network re-converge to the correct state.
func TestAddHostMidFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	o := testutil.RandomTreeMetric(14, rng)
	initial := []int{0, 1, 2, 3, 4, 5, 6, 7}
	tree, err := predtree.Build(o, 100, predtree.SearchFull, initial)
	if err != nil {
		t.Fatal(err)
	}
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
	for _, h := range []int{8, 9, 10, 11, 12, 13} {
		if err := rt.AddHost(h, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Hosts()); got != 14 {
		t.Fatalf("hosts = %d, want 14", got)
	}

	// The grown network must equal a synchronous network built from the
	// same tree.
	nw, err := overlay.NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	for _, x := range nw.Hosts() {
		for _, m := range nw.Neighbors(x) {
			if want, got := nw.AggrNode(x, m), rt.AggrNode(x, m); !slices.Equal(want, got) {
				t.Fatalf("post-churn aggrNode mismatch at x=%d m=%d: sync=%v async=%v", x, m, want, got)
			}
		}
	}
	if err := rt.AddHost(8, o); err == nil {
		t.Error("re-adding host should fail")
	}
}

// Every settled peer answers its local searches from a ladder table over
// the current snapshot, also after AddHost, which swaps the snapshot for
// every peer but links only the new host's anchor. The check is the
// predicate refreshSelfCRTLocked rebuilds by.
func TestSettledTablesMatchSnapshot(t *testing.T) {
	o := testutil.RandomTreeMetric(14, rand.New(rand.NewSource(6)))
	tree, err := predtree.Build(o, 100, predtree.SearchFull, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	checkTables := func(when string) {
		t.Helper()
		if err := rt.Settle(settleQuiet, settleMax); err != nil {
			t.Fatal(err)
		}
		d := rt.table.Load()
		for _, h := range rt.Hosts() {
			p := rt.peerByID(h)
			p.mu.Lock()
			current := p.core.TableCurrent(d, rt.cfg.Classes)
			p.mu.Unlock()
			if !current {
				t.Fatalf("%s: peer %d has no table over the current snapshot", when, h)
			}
		}
	}
	checkTables("settled")
	for _, h := range []int{12, 13} {
		before := rt.table.Load()
		if err := rt.AddHost(h, o); err != nil {
			t.Fatal(err)
		}
		if rt.table.Load() == before {
			t.Fatal("AddHost kept the old snapshot")
		}
		checkTables(fmt.Sprintf("after AddHost(%d)", h))
	}
}

// Gossip from a host that is not a neighbor, such as a late message over
// a link a departure spliced away, changes nothing: the peer keeps its
// local-search table, so it recomputes nothing, and the version Settle's
// quiet window watches stays put.
func TestNonNeighborGossipKeepsVersion(t *testing.T) {
	tree, _ := buildTree(t, 12, 0.2, 9)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	id := rt.Hosts()[0]
	stranger := -1
	for _, h := range rt.Hosts() {
		if h != id && !slices.Contains(rt.Neighbors(id), h) {
			stranger = h
			break
		}
	}
	if stranger < 0 {
		t.Fatalf("host %d neighbors every other host", id)
	}
	p := rt.peerByID(id)
	version := rt.Version()
	p.handle(transport.Message{Kind: transport.KindNodeInfo, From: stranger, To: id, Nodes: []int{stranger}})
	p.handle(transport.Message{Kind: transport.KindCRT, From: stranger, To: id, CRT: []int{99, 99, 99, 99, 99, 99, 99}})
	if got := rt.Version(); got != version {
		t.Errorf("version moved %d -> %d on gossip from non-neighbor %d", version, got, stranger)
	}
	p.mu.Lock()
	current := p.core.TableCurrent(rt.table.Load(), rt.cfg.Classes)
	p.mu.Unlock()
	if !current {
		t.Errorf("gossip from non-neighbor %d cleared peer %d's table", stranger, id)
	}
	if got := rt.AggrNode(id, stranger); len(got) != 0 {
		t.Errorf("peer %d stored node info %v from non-neighbor %d", id, got, stranger)
	}
	// The stranger gets no watermark, which would never age out; a
	// neighbor's gossip still refreshes its own.
	nb := rt.Neighbors(id)[0]
	p.mu.Lock()
	_, stamped := p.lastGossip[stranger]
	p.lastGossip[nb] = 0
	p.mu.Unlock()
	if stamped {
		t.Errorf("gossip from non-neighbor %d stamped a watermark at peer %d", stranger, id)
	}
	before := rt.Ticks()
	p.handle(transport.Message{Kind: transport.KindCRT, From: nb, To: id, CRT: rt.CRT(id, nb)})
	p.mu.Lock()
	last := p.lastGossip[nb]
	p.mu.Unlock()
	if last < before {
		t.Errorf("gossip from neighbor %d left its watermark at %d, want >= %d", nb, last, before)
	}
}

// A runtime handed a snapshot reads it and builds none; without one it
// snapshots the substrate itself.
func TestNewWithTransportSharesSnapshot(t *testing.T) {
	tree, _ := buildTree(t, 12, 0.2, 9)
	d := overlay.NewDist(tree, 20)
	rt, err := NewWithTransport(tree, d, testConfig(), testTick, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if rt.table.Load() != d {
		t.Error("the runtime built its own snapshot")
	}
	own, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer own.Stop()
	if tbl := own.table.Load(); tbl == nil || tbl == d || !tbl.Has(tree.Hosts()[0]) {
		t.Error("New did not snapshot the substrate")
	}
}

func TestStopTerminatesQuickly(t *testing.T) {
	tree, _ := buildTree(t, 10, 0.1, 7)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	done := make(chan struct{})
	go func() {
		rt.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate")
	}
	// Second Stop is a no-op.
	rt.Stop()
}

func TestAccessorsUnknownPeer(t *testing.T) {
	tree, _ := buildTree(t, 5, 0, 8)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	if rt.AggrNode(99, 0) != nil || rt.CRT(99, 0) != nil ||
		rt.SelfCRT(99) != nil || rt.Neighbors(99) != nil {
		t.Error("unknown peer accessors should be nil")
	}
}

// The settled async node search returns exactly what the synchronous
// engine computes (both hill-climb deterministically over the same
// state), and validates its inputs.
func TestAsyncNodeQueryAgreesWithSync(t *testing.T) {
	tree, _ := buildTree(t, 18, 0.2, 73)
	cfg := testConfig()
	nw, err := overlay.NewNetwork(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	rt, err := New(tree, cfg, testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(74))
	hosts := rt.Hosts()
	for trial := 0; trial < 20; trial++ {
		setSize := 1 + rng.Intn(3)
		perm := rng.Perm(len(hosts))
		set := make([]int, setSize)
		for i := range set {
			set[i] = hosts[perm[i]]
		}
		start := hosts[perm[setSize]]
		l := cfg.Classes[rng.Intn(len(cfg.Classes))]
		want, err := nw.QueryNode(start, set, l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.QueryNode(start, set, l, queryWait)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("trial %d: sync=%+v async=%+v", trial, want, got)
		}
	}
	if _, err := rt.QueryNode(999, []int{hosts[0]}, 8, queryWait); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := rt.QueryNode(hosts[0], nil, 8, queryWait); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := rt.QueryNode(hosts[0], []int{999}, 8, queryWait); err == nil {
		t.Error("unknown member should fail")
	}
	if _, err := rt.QueryNode(hosts[0], []int{hosts[1]}, -1, queryWait); err == nil {
		t.Error("negative constraint should fail")
	}
}

// Stress: many concurrent queries (cluster and node searches mixed) on a
// live network, under the race detector via `go test -race`.
func TestConcurrentQueries(t *testing.T) {
	tree, _ := buildTree(t, 20, 0.2, 77)
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
	const workers = 16
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 12; i++ {
				start := hosts[rng.Intn(len(hosts))]
				l := cfg.Classes[rng.Intn(len(cfg.Classes))]
				if i%2 == 0 {
					if _, err := rt.Query(start, 2+rng.Intn(5), l, queryWait); err != nil {
						errs <- err
						return
					}
				} else {
					set := []int{hosts[rng.Intn(len(hosts))]}
					if _, err := rt.QueryNode(start, set, l, queryWait); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrafficCounters(t *testing.T) {
	tree, _ := buildTree(t, 8, 0, 75)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	ni, crt, q := rt.Traffic()
	if ni <= 0 || crt <= 0 {
		t.Errorf("no gossip traffic recorded: nodeInfo=%d crt=%d", ni, crt)
	}
	if q != 0 {
		t.Errorf("query traffic before any query: %d", q)
	}
	if _, err := rt.Query(rt.Hosts()[0], 3, 64, queryWait); err != nil {
		t.Fatal(err)
	}
	if _, _, q := rt.Traffic(); q <= 0 {
		t.Error("query traffic not recorded")
	}
}
