package runtime

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bwcluster/internal/overlay"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// faultSettleQuiet is longer than the plain settle quiet period: injected
// delays (up to 2ms) and reorder holdbacks can land stale gossip a little
// after its send, and the quiet window must comfortably cover that.
const faultSettleQuiet = 3 * settleQuiet

// convergedNetwork builds the synchronous reference fixed point.
func convergedNetwork(t *testing.T, sub overlay.Substrate, cfg overlay.Config) *overlay.Network {
	t.Helper()
	nw, err := overlay.NewNetwork(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
	return nw
}

// assertMatchesFixedPoint compares a settled runtime's full gossip state
// (selfCRT, aggrNode, CRT per peer) against the synchronous fixed point,
// restricted to the peers rt hosts.
func assertMatchesFixedPoint(t *testing.T, nw *overlay.Network, rt *Runtime, label string) {
	t.Helper()
	for _, x := range rt.Hosts() {
		if want, got := nw.SelfCRT(x), rt.SelfCRT(x); !slices.Equal(want, got) {
			t.Fatalf("%s: selfCRT mismatch at %d: sync=%v async=%v", label, x, want, got)
		}
		for _, m := range nw.Neighbors(x) {
			if want, got := nw.AggrNode(x, m), rt.AggrNode(x, m); !slices.Equal(want, got) {
				t.Fatalf("%s: aggrNode mismatch at x=%d m=%d: sync=%v async=%v", label, x, m, want, got)
			}
			if want, got := nw.CRT(x, m), rt.CRT(x, m); !slices.Equal(want, got) {
				t.Fatalf("%s: CRT mismatch at x=%d m=%d: sync=%v async=%v", label, x, m, want, got)
			}
		}
	}
}

// The fault matrix: under seeded drop/duplicate/delay/reorder injection
// at increasing loss rates, the runtime must still settle to exactly the
// synchronous fixed point, and settled queries must agree with the
// synchronous engine — gossip is periodic and idempotent, so deterministic
// faults only delay convergence.
func TestFaultMatrixMatchesFixedPoint(t *testing.T) {
	for _, drop := range []float64{0, 0.1, 0.3} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			tree, _ := buildTree(t, 18, 0.2, 2)
			cfg := testConfig()
			nw := convergedNetwork(t, tree, cfg)

			ft, err := transport.NewFault(transport.NewChan(0), transport.FaultConfig{
				Seed:       42,
				Drop:       drop,
				Duplicate:  0.1,
				Delay:      0.1,
				MaxDelay:   2 * time.Millisecond,
				Reorder:    0.1,
				GossipOnly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Feed the process recorder so a failure leaves a black box
			// for TestMain's BWC_FLIGHT_DUMP artifact.
			ft.SetFlight(telemetry.FlightDefault())
			rt, err := NewWithTransport(tree, cfg, testTick, ft, nil)
			if err != nil {
				t.Fatal(err)
			}
			rt.SetFlight(telemetry.FlightDefault())
			rt.Start()
			defer func() {
				rt.Stop()
				ft.Close()
			}()
			if err := rt.Settle(faultSettleQuiet, settleMax); err != nil {
				t.Fatal(err)
			}
			assertMatchesFixedPoint(t, nw, rt, fmt.Sprintf("drop=%v", drop))

			hosts := rt.Hosts()
			for i, k := range []int{2, 4, 6} {
				start := hosts[(i*5)%len(hosts)]
				want, err := nw.Query(start, k, 64)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.Query(start, k, 64, queryWait)
				if err != nil {
					t.Fatal(err)
				}
				if want.Found() != got.Found() {
					t.Fatalf("start=%d k=%d: sync found=%v async found=%v", start, k, want.Found(), got.Found())
				}
			}

			// Pending-reply boundedness: every answered query removed its
			// table entry, and a TTL sweep far in the logical future finds
			// nothing left to reap — the tables cannot leak under faults.
			if n := rt.pendingReplies(); n != 0 {
				t.Fatalf("drop=%v: %d pending-reply entries leaked after %d queries", drop, n, 3)
			}
			rt.sweepPendingAt(rt.Ticks() + 10*pendTTLTicks)
			if n := rt.pendingReplies(); n != 0 {
				t.Fatalf("drop=%v: sweep found %d entries the callers should have dropped", drop, n)
			}
		})
	}
}

// Partition-and-heal: an island is cut off for a window of the global
// send sequence; after the window closes, gossip must re-converge to the
// full-network fixed point and queries must route across the healed cut.
func TestPartitionHealsToFixedPoint(t *testing.T) {
	tree, _ := buildTree(t, 15, 0.2, 9)
	cfg := testConfig()
	nw := convergedNetwork(t, tree, cfg)
	hosts := nw.Hosts()

	// Cut off roughly a third of the peers. The window is expressed in
	// transport sends: at one tick per millisecond every peer offers two
	// messages per neighbor, so the window opens immediately and heals
	// after a few dozen ticks — well before Settle's quiet period can
	// elapse, which guarantees Settle only returns on post-heal state.
	island := hosts[:len(hosts)/3]
	ft, err := transport.NewFault(transport.NewChan(0), transport.FaultConfig{
		Seed:       7,
		Drop:       0.1,
		GossipOnly: true,
		Partitions: []transport.Partition{{After: 100, Until: 1500, Island: island}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ft.SetFlight(telemetry.FlightDefault())
	rt, err := NewWithTransport(tree, cfg, testTick, ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFlight(telemetry.FlightDefault())
	rt.Start()
	defer func() {
		rt.Stop()
		ft.Close()
	}()
	if err := rt.Settle(faultSettleQuiet, settleMax); err != nil {
		t.Fatal(err)
	}
	if ft.Sends() <= 1500 {
		t.Fatalf("settled after only %d sends; partition window never closed", ft.Sends())
	}
	assertMatchesFixedPoint(t, nw, rt, "partition-healed")

	// A query starting inside the former island must route across the
	// healed cut exactly like the synchronous engine.
	start := island[0]
	want, err := nw.Query(start, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.Query(start, 4, 64, queryWait)
	if err != nil {
		t.Fatal(err)
	}
	if want.Found() != got.Found() {
		t.Fatalf("post-heal query: sync found=%v async found=%v", want.Found(), got.Found())
	}
}

// The explicit-transport constructor validates its host subset.
func TestNewWithTransportValidation(t *testing.T) {
	tree, _ := buildTree(t, 6, 0, 12)
	tr := transport.NewChan(0)
	defer tr.Close()
	if _, err := NewWithTransport(tree, testConfig(), testTick, tr, []int{999}); err == nil {
		t.Error("foreign local host should fail")
	}
	rt, err := NewWithTransport(tree, testConfig(), testTick, tr, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Hosts()); got != 2 {
		t.Fatalf("hosts = %d, want 2", got)
	}
	// The ids are now registered on the shared transport.
	if _, err := tr.Register(0); err == nil {
		t.Error("transport should already hold peer 0")
	}
	rt.Stop()
	// Stop unregistered them but did not close the caller's transport.
	if _, err := tr.Register(0); err != nil {
		t.Errorf("register after Stop: %v", err)
	}
}
