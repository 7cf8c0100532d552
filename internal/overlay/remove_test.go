package overlay

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// reachableViaAdjacency recomputes the reachable set using the network's
// CURRENT (possibly spliced) adjacency instead of the substrate's.
func reachableViaAdjacency(nw *Network, x, m int) []int {
	seen := map[int]bool{x: true, m: true}
	queue := []int{m}
	out := []int{m}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range nw.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
				out = append(out, nb)
			}
		}
	}
	sort.Ints(out)
	return out
}

func assertOverlayIsTree(t *testing.T, nw *Network) {
	t.Helper()
	hosts := nw.Hosts()
	edges := 0
	for _, h := range hosts {
		edges += len(nw.Neighbors(h))
	}
	if edges != 2*(len(hosts)-1) {
		t.Fatalf("overlay has %d directed edges over %d hosts, want %d",
			edges, len(hosts), 2*(len(hosts)-1))
	}
	// Connectivity: everything reachable from the first host by full BFS.
	if len(hosts) > 1 {
		seen := map[int]bool{hosts[0]: true}
		queue := []int{hosts[0]}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range nw.Neighbors(cur) {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		if len(seen) != len(hosts) {
			t.Fatalf("overlay disconnected: %d of %d hosts reachable", len(seen), len(hosts))
		}
	}
	// Symmetry of adjacency.
	for _, h := range hosts {
		for _, nb := range nw.Neighbors(h) {
			found := false
			for _, back := range nw.Neighbors(nb) {
				if back == h {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric overlay edge %d -> %d", h, nb)
			}
		}
	}
}

func TestRemoveHostSplicesAndReconverges(t *testing.T) {
	cfg := Config{NCut: 4, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 24, 0.2, cfg, 61)
	rng := rand.New(rand.NewSource(62))

	removed := map[int]bool{}
	hosts := nw.Hosts()
	// Remove a mix: a high-degree host and two random ones.
	deg := func(h int) int { return len(nw.Neighbors(h)) }
	hub := hosts[0]
	for _, h := range hosts {
		if deg(h) > deg(hub) {
			hub = h
		}
	}
	victims := []int{hub}
	for len(victims) < 3 {
		v := hosts[rng.Intn(len(hosts))]
		if v != hub && !removed[v] {
			victims = append(victims, v)
			removed[v] = true
		}
	}
	removed[hub] = true

	for _, v := range victims {
		if err := nw.RemoveHost(v); err != nil {
			t.Fatal(err)
		}
		assertOverlayIsTree(t, nw)
		if _, err := nw.Converge(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(nw.Hosts()); got != 21 {
		t.Fatalf("hosts = %d, want 21", got)
	}

	// Theorem 3.2 holds against the spliced adjacency.
	for _, x := range nw.Hosts() {
		for _, m := range nw.Neighbors(x) {
			reach := reachableViaAdjacency(nw, x, m)
			wantDists := make([]float64, 0, len(reach))
			for _, u := range reach {
				wantDists = append(wantDists, nw.dist.Between(x, u))
			}
			sort.Float64s(wantDists)
			if len(wantDists) > cfg.NCut {
				wantDists = wantDists[:cfg.NCut]
			}
			got := nw.AggrNode(x, m)
			gotDists := make([]float64, 0, len(got))
			for _, u := range got {
				if removed[u] {
					t.Fatalf("aggrNode of %d via %d contains removed host %d", x, m, u)
				}
				gotDists = append(gotDists, nw.dist.Between(x, u))
			}
			sort.Float64s(gotDists)
			if len(gotDists) != len(wantDists) {
				t.Fatalf("x=%d m=%d: %d nodes, want %d", x, m, len(gotDists), len(wantDists))
			}
			for i := range wantDists {
				if math.Abs(gotDists[i]-wantDists[i]) > 1e-9 {
					t.Fatalf("x=%d m=%d: dist[%d]=%v, want %v", x, m, i, gotDists[i], wantDists[i])
				}
			}
		}
	}

	// Queries still work and never name a removed host.
	for _, start := range nw.Hosts() {
		res, err := nw.Query(start, 3, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, member := range res.Cluster {
			if removed[member] {
				t.Fatalf("query returned removed host %d", member)
			}
		}
	}
}

func TestRemoveHostValidation(t *testing.T) {
	nw, _, _ := buildNetwork(t, 6, 0, Config{NCut: 3, Classes: classSpread()}, 63)
	if err := nw.RemoveHost(999); err == nil {
		t.Error("unknown host should fail")
	}
	hosts := nw.Hosts()
	for _, h := range hosts[:len(hosts)-1] {
		if err := nw.RemoveHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.RemoveHost(hosts[len(hosts)-1]); err == nil {
		t.Error("removing the last host should fail")
	}
}

func TestRemoveLeafHost(t *testing.T) {
	cfg := Config{NCut: 4, Classes: classSpread()}
	nw, _, _ := buildNetwork(t, 10, 0, cfg, 64)
	// A leaf of the overlay (degree 1).
	leaf := -1
	for _, h := range nw.Hosts() {
		if len(nw.Neighbors(h)) == 1 {
			leaf = h
			break
		}
	}
	if leaf == -1 {
		t.Skip("no overlay leaf in this topology")
	}
	if err := nw.RemoveHost(leaf); err != nil {
		t.Fatal(err)
	}
	assertOverlayIsTree(t, nw)
	if _, err := nw.Converge(0); err != nil {
		t.Fatal(err)
	}
}
