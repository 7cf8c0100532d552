package overlay

import (
	"math"
	"math/rand"
	"testing"
)

func TestQueryNodeValidation(t *testing.T) {
	nw, _, _ := buildNetwork(t, 12, 0, Config{NCut: 5, Classes: classSpread()}, 31)
	if _, err := nw.QueryNode(999, []int{0}, 10); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := nw.QueryNode(0, nil, 10); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := nw.QueryNode(0, []int{999}, 10); err == nil {
		t.Error("unknown set member should fail")
	}
	if _, err := nw.QueryNode(0, []int{1}, -1); err == nil {
		t.Error("l<0 should fail")
	}
}

// With n_cut >= n every peer sees the whole system, so the decentralized
// search must return the same optimum the centralized scan finds, from
// any start host.
func TestQueryNodeMatchesCentralWithFullKnowledge(t *testing.T) {
	n := 16
	nw, _, _ := buildNetwork(t, n, 0.2, Config{NCut: n, Classes: classSpread()}, 32)
	rng := rand.New(rand.NewSource(33))
	hosts := nw.Hosts()
	for trial := 0; trial < 30; trial++ {
		setSize := 1 + rng.Intn(3)
		set := append([]int(nil), hosts[:setSize]...)
		l := []float64{8, 16, 64}[rng.Intn(3)]
		wantNode, wantRadius, err := nw.FindNodeCentral(set, l)
		if err != nil {
			t.Fatal(err)
		}
		start := hosts[rng.Intn(len(hosts))]
		res, err := nw.QueryNode(start, set, l)
		if err != nil {
			t.Fatal(err)
		}
		if (wantNode >= 0) != res.Found() {
			t.Fatalf("central=%d decentral found=%v (set=%v l=%v)", wantNode, res.Found(), set, l)
		}
		if res.Found() && math.Abs(res.Radius-wantRadius) > 1e-9 {
			t.Fatalf("radius %v, central %v (nodes %d vs %d)", res.Radius, wantRadius, res.Node, wantNode)
		}
	}
}

// With limited n_cut the search is heuristic, but every answer it gives
// must satisfy the constraint, never name a set member, and never exceed
// the hop budget.
func TestQueryNodeAnswersAreValid(t *testing.T) {
	nw, _, _ := buildNetwork(t, 30, 0.2, Config{NCut: 4, Classes: classSpread()}, 34)
	rng := rand.New(rand.NewSource(35))
	hosts := nw.Hosts()
	for trial := 0; trial < 40; trial++ {
		setSize := 1 + rng.Intn(4)
		set := make([]int, setSize)
		perm := rng.Perm(len(hosts))
		for i := range set {
			set[i] = hosts[perm[i]]
		}
		start := hosts[perm[setSize]]
		l := []float64{4, 16, 64}[rng.Intn(3)]
		res, err := nw.QueryNode(start, set, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hops > len(hosts) {
			t.Fatalf("hops %d exceeds host count", res.Hops)
		}
		if !res.Found() {
			continue
		}
		for _, m := range set {
			if res.Node == m {
				t.Fatalf("returned node %d is a set member", res.Node)
			}
			if d := nw.dist.Between(res.Node, m); d > l*(1+1e-9) {
				t.Fatalf("node %d at %v from member %d (> l=%v)", res.Node, d, m, l)
			}
		}
	}
}

func TestFindNodeCentralValidation(t *testing.T) {
	nw, _, _ := buildNetwork(t, 8, 0, Config{NCut: 4, Classes: classSpread()}, 36)
	if _, _, err := nw.FindNodeCentral([]int{999}, 10); err == nil {
		t.Error("unknown member should fail")
	}
	node, _, err := nw.FindNodeCentral([]int{nw.Hosts()[0]}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if node < 0 {
		t.Error("loose constraint should find a node")
	}
	// A removal shrinks the roster but not the distance snapshot; the
	// answer must still name the host whose radius was found.
	set := []int{nw.Hosts()[1]}
	if err := nw.RemoveHost(nw.Hosts()[0]); err != nil {
		t.Fatal(err)
	}
	node, radius, err := nw.FindNodeCentral(set, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.dist.setRadius(node, set); got != radius {
		t.Errorf("after removal: node %d has radius %v, reported %v", node, got, radius)
	}
}
