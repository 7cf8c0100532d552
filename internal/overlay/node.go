package overlay

import (
	"fmt"
	"math"

	"bwcluster/internal/cluster"
)

// NodeResult is the outcome of a decentralized single-node search.
type NodeResult struct {
	// Node is the selected host, -1 if none satisfied the constraint.
	Node int
	// Radius is the selected node's maximum predicted distance to the
	// input set.
	Radius float64
	// Hops and Answered describe the route, as in Result.
	Hops     int
	Answered int
}

// Found reports whether a node was returned.
func (r NodeResult) Found() bool { return r.Node >= 0 }

// QueryNode implements the paper's future-work single-node search
// decentrally: find one host whose maximum predicted distance to every
// member of set is at most l (equivalently, whose worst bandwidth to the
// set is at least the transformed constraint), preferring the smallest
// such radius.
//
// The query hill-climbs over the overlay: each visited peer evaluates
// its own clustering space against the set and forwards toward the
// neighbor direction whose aggregated node info produced the incumbent
// best candidate. Routing never returns to the sender, so on the tree
// overlay it terminates after at most the anchor-tree diameter. The
// result is exact whenever the true best node lies in some visited
// peer's clustering space (guaranteed for n_cut >= n, a heuristic
// otherwise — mirroring the clustering protocol's n_cut tradeoff).
func (nw *Network) QueryNode(start int, set []int, l float64) (NodeResult, error) {
	if _, ok := nw.peers[start]; !ok {
		return NodeResult{}, fmt.Errorf("overlay: unknown start host %d", start)
	}
	if len(set) == 0 {
		return NodeResult{}, fmt.Errorf("overlay: empty input set")
	}
	for _, m := range set {
		if _, ok := nw.peers[m]; !ok {
			return NodeResult{}, fmt.Errorf("overlay: set member %d is not an overlay host", m)
		}
	}
	if l < 0 {
		return NodeResult{}, fmt.Errorf("overlay: constraint l must be >= 0, got %v", l)
	}

	res := NodeResult{Node: -1, Radius: math.Inf(1)}
	cur, prev := start, -1
	for hop := 0; hop <= len(nw.hosts); hop++ {
		var next int
		res.Node, res.Radius, next = nw.peers[cur].ClimbHop(nw.dist, set, prev, res.Node, res.Radius)
		if next == -1 {
			// No improvement from an unexplored direction: the search has
			// converged on this side of the tree.
			break
		}
		prev, cur = cur, next
		res.Hops++
	}
	res.Answered = cur
	if res.Radius > l {
		return NodeResult{Node: -1, Radius: 0, Hops: res.Hops, Answered: cur}, nil
	}
	return res, nil
}

// FindNodeCentral runs the centralized single-node search over the full
// predicted metric (the reference the decentralized search approximates).
func (nw *Network) FindNodeCentral(set []int, l float64) (int, float64, error) {
	idxSet := make([]int, len(set))
	for i, m := range set {
		pos, ok := nw.dist.index[m]
		if !ok {
			return -1, 0, fmt.Errorf("overlay: set member %d is not an overlay host", m)
		}
		idxSet[i] = pos
	}
	node, radius, err := cluster.FindNodeForSet(nw.dist.m, idxSet, l)
	if err != nil || node < 0 {
		return -1, 0, err
	}
	return nw.dist.hosts[node], radius, nil
}
