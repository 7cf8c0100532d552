// Two-process mode: the same protocol network split across two OS
// processes talking over real TCP sockets. Both processes build the
// identical prediction framework from the shared seed (the substrate
// must describe the whole network on every process), then each hosts
// half of the peers; gossip and query forwarding cross the process
// boundary through transport.TCPTransport.
//
//	go run ./examples/livenet -tcp-smoke          # spawns the second process itself
//
// or by hand, in two shells:
//
//	go run ./examples/livenet -tcp-listen 127.0.0.1:7701 -tcp-peer 127.0.0.1:7702 -tcp-role a
//	go run ./examples/livenet -tcp-listen 127.0.0.1:7702 -tcp-peer 127.0.0.1:7701 -tcp-role b
package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"time"

	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/runtime"
	"bwcluster/internal/transport"
)

const (
	splitHosts = 24
	splitK     = 4
	splitSeed  = 7
)

// splitSide is one process's half of the split network: its runtime, its
// transport, and which peer ids live on each side.
type splitSide struct {
	rt     *runtime.Runtime
	tr     *transport.TCPTransport
	local  []int
	remote []int
}

// startSplit builds the shared substrate, takes the role's half of the
// hosts, and starts a runtime over a TCP transport listening on listen
// with every remote peer routed to peerAddr. Role "a" hosts the
// even-indexed peers, "b" the odd-indexed ones.
func startSplit(role, listen, peerAddr string) (*splitSide, error) {
	if role != "a" && role != "b" {
		return nil, fmt.Errorf("tcp-role must be a or b, got %q", role)
	}
	// Both processes must derive the same framework: same seed, same
	// join order, full host set.
	rng := rand.New(rand.NewSource(splitSeed))
	bw, err := dataset.Generate(dataset.HPConfig().WithN(splitHosts), rng)
	if err != nil {
		return nil, err
	}
	dist, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
	if err != nil {
		return nil, err
	}
	classes, err := overlay.ClassesFromBandwidths([]float64{20, 35, 50, 70}, metric.DefaultC)
	if err != nil {
		return nil, err
	}
	tree, err := predtree.New(metric.DefaultC, predtree.SearchAnchor)
	if err != nil {
		return nil, err
	}
	for _, h := range rng.Perm(splitHosts) {
		if err := tree.Add(h, dist); err != nil {
			return nil, err
		}
	}
	hosts := tree.Hosts()
	var local, remote []int
	for i, h := range hosts {
		if (i%2 == 0) == (role == "a") {
			local = append(local, h)
		} else {
			remote = append(remote, h)
		}
	}

	tr, err := transport.NewTCP(transport.TCPConfig{Listen: listen})
	if err != nil {
		return nil, err
	}
	for _, h := range remote {
		tr.AddRoute(h, peerAddr)
	}
	rt, err := runtime.NewWithTransport(tree, nil, overlay.Config{NCut: 8, Classes: classes}, time.Millisecond, tr, local)
	if err != nil {
		tr.Close()
		return nil, err
	}
	rt.Start()
	return &splitSide{rt: rt, tr: tr, local: local, remote: remote}, nil
}

// stop shuts the runtime down and closes the transport (the runtime does
// not own a transport it was handed).
func (s *splitSide) stop() {
	s.rt.Stop()
	s.tr.Close()
}

// settle waits until this side's state stops changing across a full
// quiet window twice in a row — remote gossip bumps the local version,
// so stability means both halves (and the sockets between them) have
// gone quiet.
func (s *splitSide) settle() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := s.rt.Version()
		if err := s.rt.Settle(300*time.Millisecond, time.Until(deadline)); err != nil {
			return err
		}
		if s.rt.Version() == v {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("split network did not settle")
		}
	}
}

// runTCPRole is one process of the two-process demo: start a half, wait
// for the network (both halves) to settle, then query across the split.
func runTCPRole(role, listen, peerAddr string) error {
	if peerAddr == "" {
		return fmt.Errorf("-tcp-peer is required with -tcp-listen")
	}
	s, err := startSplit(role, listen, peerAddr)
	if err != nil {
		return err
	}
	defer s.stop()
	fmt.Printf("[%s] hosting %d of %d peers on %s, peer process at %s\n",
		role, len(s.local), splitHosts, s.tr.Addr(), peerAddr)
	if err := s.settle(); err != nil {
		return err
	}
	fmt.Printf("[%s] network settled (%d reconnect attempts while the peer came up)\n",
		role, s.tr.Reconnects())

	// Query from a local peer; the search routes through peers hosted by
	// the other process and the answer is routed back here.
	for _, b := range []float64{35, 50} {
		res, err := s.rt.Query(s.local[0], splitK, classL(b), 10*time.Second)
		if err != nil {
			return err
		}
		status := "not found"
		if res.Found() {
			status = fmt.Sprintf("cluster %v", res.Cluster)
		}
		fmt.Printf("[%s] query (k=%d, b=%.0f) from host %2d: %s (%d hops, answered by %d)\n",
			role, splitK, b, s.local[0], status, res.Hops, res.Answered)
	}
	return nil
}

// runTCPSmoke runs the two-process demo end to end: it reserves two
// loopback ports, re-executes this binary as role b, and runs role a in
// this process.
func runTCPSmoke() error {
	addrA, err := freeAddr()
	if err != nil {
		return err
	}
	addrB, err := freeAddr()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := exec.Command(self, "-tcp-listen", addrB, "-tcp-peer", addrA, "-tcp-role", "b")
	child.Stdout = os.Stdout
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		return err
	}
	errA := runTCPRole("a", addrA, addrB)
	if err := child.Wait(); err != nil {
		return fmt.Errorf("role b process: %w", err)
	}
	return errA
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// process that will actually listen there. The tiny window between
// release and reuse is covered by the transport's reconnect backoff.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}
