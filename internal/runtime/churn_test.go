package runtime

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"bwcluster/internal/cluster"
	"bwcluster/internal/membership"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/testutil"
	"bwcluster/internal/transport"
)

// refreshGossip stamps every peer's gossip-age watermark to now, except
// links pointing at host except (pass -1 to refresh everything). Tests
// use it to simulate gossip freshness without running the peer
// goroutines, keeping liveness transitions fully deterministic.
func refreshGossip(rt *Runtime, now uint64, except int) {
	rt.mu.Lock()
	peers := make([]*peer, 0, len(rt.peers))
	for _, p := range rt.peers {
		peers = append(peers, p)
	}
	rt.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		for v := range p.lastGossip {
			if v != except {
				p.lastGossip[v] = now
			}
		}
		p.mu.Unlock()
	}
}

// Deterministic liveness ladder driven by synthetic ticks: a quiet host
// turns suspect, recovers when gossip resumes, and — quiet past the
// death threshold — is declared dead and auto-evicted, repairing the
// prediction tree and moving the membership epoch.
func TestChurnAutoEvictsDeadHost(t *testing.T) {
	tree, _ := buildTree(t, 8, 0.2, 81)
	rt, err := New(tree, testConfig(), testTick)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	tk, err := rt.AttachMembership(membership.Config{SuspectAfterTicks: 50, DeadAfterTicks: 200}, true)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := tk.Epoch()
	if epoch0 != 8 {
		t.Fatalf("epoch after attach = %d, want 8 (one join per host)", epoch0)
	}
	if tree.Epoch() != epoch0 {
		t.Fatalf("tree epoch %d != tracker epoch %d at attach", tree.Epoch(), epoch0)
	}
	victim := rt.Hosts()[3]

	// Index the pre-churn space at the pre-churn epoch; it must reject
	// post-churn queries below.
	dist, _ := tree.DistMatrix()
	ix, err := cluster.NewIndexParallelAt(dist, 1, tree.Epoch())
	if err != nil {
		t.Fatal(err)
	}

	// Fresh gossip everywhere but the victim's links: still alive at age
	// below the suspect threshold.
	refreshGossip(rt, 10, victim)
	rt.membershipScanAt(10)
	if got := tk.Status(victim); got != membership.StatusAlive {
		t.Fatalf("status at age 10 = %v, want alive", got)
	}

	// Quiet past the suspect threshold: suspect, membership unchanged.
	refreshGossip(rt, 70, victim)
	rt.membershipScanAt(70)
	if got := tk.Status(victim); got != membership.StatusSuspect {
		t.Fatalf("status at age 70 = %v, want suspect", got)
	}
	if got := tk.Epoch(); got != epoch0 {
		t.Fatalf("suspicion moved the epoch to %d", got)
	}
	if got := len(rt.Hosts()); got != 8 {
		t.Fatalf("suspicion evicted a host: %d left", got)
	}

	// Gossip resumes: recover.
	refreshGossip(rt, 80, -1)
	rt.membershipScanAt(80)
	if got := tk.Status(victim); got != membership.StatusAlive {
		t.Fatalf("status after recovery = %v, want alive", got)
	}

	// Quiet again, past the death threshold: suspect first, then dead —
	// and the runtime auto-evicts, repairing the tree.
	refreshGossip(rt, 140, victim)
	rt.membershipScanAt(140)
	refreshGossip(rt, 290, victim)
	rt.membershipScanAt(290)
	if got := tk.Status(victim); got != membership.StatusDead {
		t.Fatalf("status past death threshold = %v, want dead", got)
	}
	if got := len(rt.Hosts()); got != 7 {
		t.Fatalf("hosts after auto-evict = %d, want 7", got)
	}
	if tree.Contains(victim) {
		t.Fatal("auto-evict did not repair the prediction tree")
	}
	if got := tk.Epoch(); got != epoch0+1 {
		t.Fatalf("epoch after death = %d, want %d", got, epoch0+1)
	}
	if tree.Epoch() != tk.Epoch() {
		t.Fatalf("tree epoch %d != tracker epoch %d after eviction", tree.Epoch(), tk.Epoch())
	}

	// The pre-churn index is now stale and says so.
	if _, err := ix.FindAt(tree.Epoch(), 3, 64); !errors.Is(err, cluster.ErrStaleIndex) {
		t.Fatalf("stale index error = %v, want ErrStaleIndex", err)
	}

	// The victim's links are gone: later scans no longer observe it.
	refreshGossip(rt, 300, -1)
	rt.membershipScanAt(300)
	if got := tk.Status(victim); got != membership.StatusDead {
		t.Fatalf("evicted host resurfaced as %v", got)
	}
	events := tk.Events(nil)
	var kinds []membership.EventKind
	for _, ev := range events {
		if ev.Host == victim {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []membership.EventKind{
		membership.EventJoin, membership.EventSuspect, membership.EventRecover,
		membership.EventSuspect, membership.EventFail,
	}
	if len(kinds) != len(want) {
		t.Fatalf("victim events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("victim event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

// A partitioned host turns suspect while the cut is active and recovers
// once it heals — with the death threshold out of reach, the membership
// epoch never moves. Runs against the live runtime under FaultTransport.
func TestChurnPartitionSuspectThenHeal(t *testing.T) {
	tree, _ := buildTree(t, 6, 0.2, 82)
	cfg := testConfig()
	// Pick an anchor-tree leaf: its only observers are on the mainland,
	// so only it goes suspect.
	victim := -1
	for _, h := range tree.Hosts() {
		if len(tree.AnchorNeighbors(h)) == 1 {
			victim = h
			break
		}
	}
	if victim < 0 {
		t.Fatal("no anchor-tree leaf in test tree")
	}
	const healAt = 20000
	ft, err := transport.NewFault(transport.NewChan(0), transport.FaultConfig{
		Seed:       19,
		Partitions: []transport.Partition{{After: 100, Until: healAt, Island: []int{victim}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewWithTransport(tree, nil, cfg, testTick, ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := rt.AttachMembership(membership.Config{SuspectAfterTicks: 100, DeadAfterTicks: 100000}, true)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := tk.Epoch()
	rt.Start()
	defer func() {
		rt.Stop()
		ft.Close()
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(settleMax)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("victim suspect under partition", func() bool {
		return tk.Status(victim) == membership.StatusSuspect
	})
	waitFor("partition heal", func() bool { return ft.Sends() >= healAt })
	waitFor("victim recovery after heal", func() bool {
		return tk.Status(victim) == membership.StatusAlive
	})
	if got := tk.Epoch(); got != epoch0 {
		t.Fatalf("partition moved the membership epoch %d -> %d", epoch0, got)
	}
	if got := len(rt.Hosts()); got != 6 {
		t.Fatalf("hosts after heal = %d, want 6", got)
	}
	sawSuspect, sawRecover := false, false
	for _, ev := range tk.Events(nil) {
		if ev.Host != victim {
			continue
		}
		switch ev.Kind {
		case membership.EventSuspect:
			sawSuspect = true
		case membership.EventRecover:
			sawRecover = true
		case membership.EventFail, membership.EventLeave:
			t.Fatalf("victim logged %v during a transient partition", ev.Kind)
		}
	}
	if !sawSuspect || !sawRecover {
		t.Fatalf("event log missing suspect/recover for victim: suspect=%v recover=%v", sawSuspect, sawRecover)
	}
}

// Sustained churn soak under a lossy transport: a seeded sequence of
// joins and leaves/fails applied to the live runtime must converge to
// exactly the fixed point the synchronous engine computes from scratch
// on the surviving membership, with the membership epoch tracking the
// substrate epoch step for step.
func TestChurnSoakFixedPoint(t *testing.T) {
	const base, extra = 18, 5
	rng := rand.New(rand.NewSource(77))
	o := testutil.NoisyTreeMetric(base+extra, 0.2, rng)
	tree, err := predtree.Build(o, 100, predtree.SearchFull, rng.Perm(base))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	ft, err := transport.NewFault(transport.NewChan(0), transport.FaultConfig{
		Seed: 21, Drop: 0.15, GossipOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewWithTransport(tree, nil, cfg, testTick, ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := rt.AttachMembership(membership.Config{SuspectAfterTicks: 100000, DeadAfterTicks: 200000}, false)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer func() {
		rt.Stop()
		ft.Close()
	}()
	if err := rt.Settle(faultSettleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}

	// ~40% turnover: 5 leaves/fails and 5 joins (one joiner churns right
	// back out), interleaved, all under sustained gossip loss.
	type op struct {
		kind string // "join" or "evict"
		host int
	}
	ops := []op{
		{"evict", 3}, {"join", base}, {"evict", 11}, {"join", base + 1},
		{"evict", 7}, {"join", base + 2}, {"evict", base}, {"join", base + 3},
		{"evict", 15}, {"join", base + 4},
	}
	for _, operation := range ops {
		switch operation.kind {
		case "join":
			if err := rt.AddHost(operation.host, o); err != nil {
				t.Fatalf("add %d: %v", operation.host, err)
			}
		case "evict":
			if err := rt.EvictHost(operation.host); err != nil {
				t.Fatalf("evict %d: %v", operation.host, err)
			}
		}
		if tree.Epoch() != tk.Epoch() {
			t.Fatalf("after %s %d: tree epoch %d != tracker epoch %d",
				operation.kind, operation.host, tree.Epoch(), tk.Epoch())
		}
	}
	if err := rt.Settle(faultSettleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	if got, want := len(rt.Hosts()), base; got != want {
		t.Fatalf("hosts after soak = %d, want %d", got, want)
	}

	// Reference: the synchronous engine built from scratch on the
	// repaired substrate (the surviving membership).
	nw := convergedNetwork(t, tree, cfg)
	assertMatchesFixedPoint(t, nw, rt, "churn-soak")

	// Queries on the churned network answer and return only live hosts.
	live := make(map[int]bool)
	for _, h := range rt.Hosts() {
		live[h] = true
	}
	for _, start := range rt.Hosts()[:3] {
		res, err := rt.Query(start, 3, 64, queryWait)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Cluster {
			if !live[m] {
				t.Fatalf("query from %d returned departed host %d", start, m)
			}
		}
	}

	// The pre-churn membership epoch no longer matches: an index tagged
	// with it refuses to answer.
	distM, _ := tree.DistMatrix()
	ix, err := cluster.NewIndexParallelAt(distM, 1, tk.Epoch()-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.FindAt(tree.Epoch(), 3, 64); !errors.Is(err, cluster.ErrStaleIndex) {
		t.Fatalf("stale index error = %v, want ErrStaleIndex", err)
	}
	if _, err := cluster.NewIndexParallelAt(distM, 1, tree.Epoch()); err != nil {
		t.Fatal(err)
	}
	_ = overlay.Stats{} // keep the overlay import for the reference engine
}
