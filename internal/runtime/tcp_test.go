package runtime

import (
	"testing"
	"time"

	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// settlePair waits until both runtimes report settled with no state
// change slipping in between the two observations: cross-process gossip
// means one side settling can still wake the other. The quiet window is
// the widened fault-test one — frames in flight in socket buffers can
// land state-changing gossip well after the sending side went quiet.
func settlePair(t *testing.T, a, b *Runtime) {
	t.Helper()
	deadline := time.Now().Add(settleMax)
	for {
		if time.Now().After(deadline) {
			t.Fatal("split runtimes did not settle")
		}
		va, vb := a.Version(), b.Version()
		if err := a.Settle(faultSettleQuiet, settleMax); err != nil {
			t.Fatal(err)
		}
		if err := b.Settle(faultSettleQuiet, settleMax); err != nil {
			t.Fatal(err)
		}
		if a.Version() == va && b.Version() == vb {
			return
		}
	}
}

// One protocol network split across two runtimes connected by real TCP
// sockets over loopback: both halves must settle to the synchronous
// fixed point, and queries must forward across the process boundary and
// route their answers back. This is the in-process equivalent of the
// two-process livenet smoke test.
func TestTCPSplitRuntimeMatchesFixedPoint(t *testing.T) {
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
	// Feed the process recorder so a failure leaves a black box for
	// TestMain's BWC_FLIGHT_DUMP artifact.
	trA.SetFlight(telemetry.FlightDefault())
	trB.SetFlight(telemetry.FlightDefault())
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
	rtA.SetFlight(telemetry.FlightDefault())
	rtB.SetFlight(telemetry.FlightDefault())
	rtA.Start()
	rtB.Start()
	defer func() {
		rtA.Stop()
		rtB.Stop()
	}()
	settlePair(t, rtA, rtB)

	assertMatchesFixedPoint(t, nw, rtA, "tcp-split/A")
	assertMatchesFixedPoint(t, nw, rtB, "tcp-split/B")

	// Queries submitted on either side must agree with the synchronous
	// engine even when they forward through peers hosted by the other
	// process.
	for i, tc := range []struct {
		rt    *Runtime
		start int
		k     int
	}{
		{rtA, hostsA[0], 3},
		{rtB, hostsB[0], 4},
		{rtA, hostsA[len(hostsA)-1], 6},
	} {
		want, err := nw.Query(tc.start, tc.k, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.rt.Query(tc.start, tc.k, 64, queryWait)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want.Found() != got.Found() {
			t.Fatalf("query %d (start=%d k=%d): sync found=%v async found=%v",
				i, tc.start, tc.k, want.Found(), got.Found())
		}
		if got.Found() && len(got.Path) != got.Hops+1 {
			t.Fatalf("query %d: path %v inconsistent with hops %d", i, got.Path, got.Hops)
		}
	}

	// Node search across the split: set members on both sides.
	set := []int{hostsA[1], hostsB[1]}
	want, err := nw.QueryNode(hostsA[0], set, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rtA.QueryNode(hostsA[0], set, 64, queryWait)
	if err != nil {
		t.Fatal(err)
	}
	if want.Node != got.Node {
		t.Fatalf("split node search: sync=%d async=%d", want.Node, got.Node)
	}
}
