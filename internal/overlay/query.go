package overlay

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bwcluster/internal/telemetry"
)

// ErrNoClass is returned when a query's diameter constraint is tighter
// than every configured class.
var ErrNoClass = errors.New("overlay: constraint tighter than every diameter class")

// Result describes the outcome of a decentralized query.
type Result struct {
	// Cluster holds the k selected host ids, nil if none was found.
	Cluster []int
	// Hops is how many times the query was forwarded before terminating.
	Hops int
	// Answered is the host that produced the final answer.
	Answered int
	// Class is the diameter class the query was snapped to.
	Class float64
	// Path lists every host the query visited, starting host first
	// (len(Path) == Hops+1).
	Path []int
}

// Found reports whether a cluster was returned.
func (r Result) Found() bool { return len(r.Cluster) > 0 }

// ClassFor snaps a diameter constraint l to the largest configured class
// that does not exceed it (never relaxing the constraint). Returns the
// class value and its index. A NaN constraint is an error.
func (c Config) ClassFor(l float64) (float64, int, error) {
	if math.IsNaN(l) {
		return 0, 0, fmt.Errorf("overlay: diameter constraint is NaN")
	}
	idx := sort.SearchFloat64s(c.Classes, l)
	// Classes[idx-1] <= l < Classes[idx] unless Classes[idx] == l.
	if idx < len(c.Classes) && c.Classes[idx] == l {
		return l, idx, nil
	}
	if idx == 0 {
		return 0, 0, fmt.Errorf("%w: l=%v < smallest class %v", ErrNoClass, l, c.Classes[0])
	}
	return c.Classes[idx-1], idx - 1, nil
}

// Query runs Algorithm 4 starting at host start with size constraint k and
// diameter constraint l. The query is snapped to a class, tried against
// the start peer's local clustering space, and forwarded along the overlay
// while some neighbor's CRT promises a big-enough cluster. A nil Cluster
// with no error means the network (correctly or not) concluded no cluster
// exists.
func (nw *Network) Query(start, k int, l float64) (Result, error) {
	return nw.QueryTraced(start, k, l, nil)
}

// QueryTraced is Query with an optional trace: when span is non-nil,
// every hop of the overlay route is recorded as a child span carrying
// the peer id, the local CRT promise, the local clustering-space size
// (when a local attempt runs) and the candidate radius (the snapped
// diameter class) — the route-level detail the paper's message/hop
// accounting aggregates away. A nil span makes tracing free: child
// creation and attribute writes are no-ops on nil receivers.
func (nw *Network) QueryTraced(start, k int, l float64, span *telemetry.Span) (Result, error) {
	if _, ok := nw.peers[start]; !ok {
		return Result{}, fmt.Errorf("overlay: unknown start host %d", start)
	}
	if k < 2 {
		return Result{}, fmt.Errorf("overlay: size constraint k must be >= 2, got %d", k)
	}
	classL, classIdx, err := nw.cfg.ClassFor(l)
	if err != nil {
		return Result{}, err
	}
	span.SetAttr("k", k)
	span.SetAttr("classL", classL)
	span.SetAttr("classIndex", classIdx)
	res := Result{Class: classL}
	cur, prev := start, -1
	// The overlay is a tree, so a query that never returns to its sender
	// cannot cycle; the bound is a safety net against inconsistent CRTs.
	for hop := 0; hop <= len(nw.hosts); hop++ {
		res.Path = append(res.Path, cur)
		hs := span.Child("hop")
		hs.SetAttr("host", cur)
		hs.SetAttr("radius", classL)
		step, err := nw.peers[cur].QueryHop(nw.dist, k, classIdx, classL, prev)
		if err != nil {
			return Result{}, err
		}
		hs.SetAttr("selfMax", step.SelfMax)
		if step.Space > 0 {
			hs.SetAttr("localSpace", step.Space)
		}
		if step.Next == -1 {
			hs.SetAttr("answered", true)
			hs.Finish()
			res.Cluster = step.Members
			res.Answered = cur
			nw.observeQuery(res)
			return res, nil
		}
		hs.SetAttr("forwardTo", step.Next)
		hs.SetAttr("promise", step.Promise)
		hs.Finish()
		prev, cur = cur, step.Next
		res.Hops++
	}
	return res, fmt.Errorf("overlay: query (k=%d, l=%v) exceeded hop bound; inconsistent CRTs", k, l)
}

// observeQuery records the terminal metrics of one completed query.
func (nw *Network) observeQuery(res Result) {
	mQueries.Inc()
	mQueryHops.Observe(float64(res.Hops))
}
