package runtime

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"bwcluster/internal/overlay"
	"bwcluster/internal/telemetry"
	"bwcluster/internal/transport"
)

// The two-OS-process trace test: the test binary re-executes itself as
// a child process hosting half the peers over a real TCP transport, and
// a traced query submitted in the parent must come back with one
// reassembled span tree whose hop spans carry host ids owned by the
// child process — distributed tracing demonstrated across an actual
// process boundary, not just two transports in one address space.

// Both processes rebuild the same topology independently from these
// pinned parameters (buildTree is deterministic in them), so no
// topology needs to cross the wire.
const (
	splitTreeN     = 12
	splitTreeNoise = 0.2
	splitTreeSeed  = 11
	splitChildEnv  = "BWC_SPLIT_TRACE_CHILD"
	splitParentEnv = "BWC_SPLIT_TRACE_PARENT_ADDR"
)

// splitHosts deals the host list between the processes: even positions
// to the parent, odd to the child.
func splitHosts(all []int) (parent, child []int) {
	for i, h := range all {
		if i%2 == 0 {
			parent = append(parent, h)
		} else {
			child = append(child, h)
		}
	}
	return parent, child
}

// TestSplitProcessChild is not a test of its own: it is the child half
// of TestTwoProcessTracedQuery, run in a re-exec'd copy of the test
// binary. It hosts the odd peers on a TCP transport, announces its
// listen address on stdout, and serves until the parent closes stdin.
func TestSplitProcessChild(t *testing.T) {
	if os.Getenv(splitChildEnv) == "" {
		t.Skip("helper process for TestTwoProcessTracedQuery")
	}
	parentAddr := os.Getenv(splitParentEnv)
	if parentAddr == "" {
		t.Fatalf("%s is set but %s is empty", splitChildEnv, splitParentEnv)
	}
	tree, _ := buildTree(t, splitTreeN, splitTreeNoise, splitTreeSeed)
	cfg := testConfig()
	nw := convergedNetwork(t, tree, cfg)
	parentHosts, childHosts := splitHosts(nw.Hosts())

	tr, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0", JitterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, h := range parentHosts {
		tr.AddRoute(h, parentAddr)
	}
	rt, err := NewWithTransport(tree, cfg, testTick, tr, childHosts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	fmt.Printf("READY %s\n", tr.Addr())
	// Serve until the parent hangs up (or dies — the pipe closes either
	// way, so an orphaned child cannot outlive the test run).
	_, _ = io.Copy(io.Discard, os.Stdin)
}

// matchesFixedPoint is the non-fatal form of assertMatchesFixedPoint,
// restricted to the peers rt hosts, for convergence polling while a
// peer process is still gossiping.
func matchesFixedPoint(nw *overlay.Network, rt *Runtime) bool {
	for _, x := range rt.Hosts() {
		if !slices.Equal(nw.SelfCRT(x), rt.SelfCRT(x)) {
			return false
		}
		for _, m := range nw.Neighbors(x) {
			if !slices.Equal(nw.AggrNode(x, m), rt.AggrNode(x, m)) {
				return false
			}
			if !slices.Equal(nw.CRT(x, m), rt.CRT(x, m)) {
				return false
			}
		}
	}
	return true
}

// TestTwoProcessTracedQuery re-executes the test binary as a child OS
// process hosting half the overlay, settles gossip across the real TCP
// link, and runs traced queries from a parent-hosted peer: every query
// must agree with the synchronous engine and assemble one complete span
// tree, and at least one hop span must carry a host id the CHILD
// process owns — proof that span events were minted in another process
// and reported back over the wire.
func TestTwoProcessTracedQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child OS process")
	}
	tree, _ := buildTree(t, splitTreeN, splitTreeNoise, splitTreeSeed)
	cfg := testConfig()
	nw := convergedNetwork(t, tree, cfg)
	parentHosts, childHosts := splitHosts(nw.Hosts())

	trA, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0", JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestSplitProcessChild$")
	cmd.Env = append(os.Environ(), splitChildEnv+"=1", splitParentEnv+"="+trA.Addr())
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close() // EOF tells the child to shut down
		if err := cmd.Wait(); err != nil {
			t.Errorf("child process: %v", err)
		}
	}()

	// The child announces its transport address once its peers gossip.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
				addrCh <- addr
				break
			}
		}
		// Drain so the child never blocks writing test output.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	var childAddr string
	select {
	case childAddr = <-addrCh:
	case <-time.After(settleMax):
		t.Fatal("child process never announced READY")
	}

	for _, h := range childHosts {
		trA.AddRoute(h, childAddr)
	}
	rt, err := NewWithTransport(tree, cfg, testTick, trA, parentHosts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	// Settle against the cross-process gossip: poll until this half is
	// at the synchronous fixed point (the child converges symmetrically
	// — gossip is bidirectional and idempotent).
	deadline := time.Now().Add(settleMax)
	for !matchesFixedPoint(nw, rt) {
		if time.Now().After(deadline) {
			t.Fatal("parent half never reached the synchronous fixed point")
		}
		if err := rt.Settle(faultSettleQuiet, settleMax); err != nil {
			t.Fatal(err)
		}
	}

	childSet := make(map[int]bool, len(childHosts))
	for _, h := range childHosts {
		childSet[h] = true
	}
	crossed := false
	for _, k := range []int{3, 4, 6} {
		want, err := nw.Query(parentHosts[0], k, 64)
		if err != nil {
			t.Fatal(err)
		}
		span := telemetry.StartSpan("query")
		res, err := rt.QueryTraced(parentHosts[0], k, 64, queryWait, span)
		span.Finish()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want.Found() != res.Found() {
			t.Fatalf("k=%d: sync found=%v async found=%v", k, want.Found(), res.Found())
		}
		hosts := hopHosts(span)
		if len(hosts) == 0 {
			t.Fatalf("k=%d: trace assembled no hop spans", k)
		}
		gaps := 0
		walkSpans(span, func(s *telemetry.Span) {
			if s.Name() == "gap" {
				gaps++
			}
		})
		if gaps != 0 {
			t.Fatalf("k=%d: lossless TCP trace has %d gap spans", k, gaps)
		}
		for _, h := range hosts {
			if childSet[h] {
				crossed = true
			}
		}
		t.Logf("k=%d: hops=%d hop-span hosts=%v", k, res.Hops, hosts)
	}
	if !crossed {
		t.Fatal("no hop span carried a child-process host id; the trace never crossed the process boundary")
	}
}
