package cluster

import (
	"fmt"
	"math"

	"bwcluster/internal/metric"
)

// FindNodeForSet implements the paper's first future-work extension
// ("for a given set of multiple nodes, find a single node that has high
// bandwidth with all the nodes in the input set"): among candidates not
// in the set, it returns the node minimizing the maximum distance to any
// set member, provided that maximum is at most l. It returns -1 when no
// candidate qualifies.
//
// In bandwidth terms (after the rational transform) this is the node
// whose *worst* predicted bandwidth to the set is best, subject to the
// worst being at least the transformed constraint — exactly the
// bottleneck-optimal placement for, say, a data distributor or an extra
// worker joining a running job set.
func FindNodeForSet(s metric.Space, set []int, l float64) (int, float64, error) {
	if s == nil {
		return -1, 0, fmt.Errorf("cluster: nil space")
	}
	if len(set) == 0 {
		return -1, 0, fmt.Errorf("cluster: empty input set")
	}
	if l < 0 {
		return -1, 0, fmt.Errorf("cluster: constraint l must be >= 0, got %v", l)
	}
	inSet := make(map[int]bool, len(set))
	for _, m := range set {
		if m < 0 || m >= s.N() {
			return -1, 0, fmt.Errorf("cluster: set member %d out of range [0,%d)", m, s.N())
		}
		inSet[m] = true
	}
	best, bestD := -1, math.Inf(1)
	for x := 0; x < s.N(); x++ {
		if inSet[x] {
			continue
		}
		worst := 0.0
		for _, m := range set {
			if d := s.Dist(x, m); d > worst {
				worst = d
			}
		}
		if worst <= l && worst < bestD {
			best, bestD = x, worst
		}
	}
	if best == -1 {
		return -1, 0, nil
	}
	return best, bestD, nil
}
