// Package cluster implements the paper's Algorithm 1 — the centralized
// polynomial-time clustering algorithm for tree metric spaces — together
// with a reusable precomputed index and a brute-force reference used in
// tests.
//
// Given a metric space (V, d), a size constraint k >= 2 and a diameter
// constraint l, the algorithm considers for every node pair (p, q) the
// candidate cluster
//
//	S*pq = { x in V : d(x,p) <= d(p,q) and d(x,q) <= d(p,q) },
//
// the largest cluster whose diameter is determined by (p, q). In a tree
// metric space diam(S*pq) = d(p,q) (Theorem 3.1), so scanning pairs with
// d(p,q) <= l and returning k nodes from the first sufficiently large
// S*pq solves the problem in O(n^3). Pairs are scanned in lexicographic
// (p, q) order, matching the paper's "foreach node pair" loop: the first
// qualifying pair answers the query, deterministically.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bwcluster/internal/metric"
)

// FindCluster runs Algorithm 1 on s: it returns k node indices forming a
// cluster of diameter at most l (under the tree-metric assumption), or nil
// if no node pair admits one. k must be at least 2 and l non-negative.
func FindCluster(s metric.Space, k int, l float64) ([]int, error) {
	if err := validate(s, k, l); err != nil {
		return nil, err
	}
	n := s.N()
	for p := 0; p < n; p++ {
		mScanRows.Inc()
		for q := p + 1; q < n; q++ {
			if s.Dist(p, q) > l {
				continue
			}
			// Size the candidate set without materializing it: the scan
			// visits O(n^2) pairs and allocates only for the one answer.
			if countMembers(s, p, q) >= k {
				return firstMembers(s, p, q, k), nil
			}
		}
	}
	return nil, nil
}

func validate(s metric.Space, k int, l float64) error {
	if k < 2 {
		return fmt.Errorf("cluster: size constraint k must be >= 2, got %d", k)
	}
	if l < 0 || math.IsNaN(l) {
		return fmt.Errorf("cluster: diameter constraint l must be >= 0, got %v", l)
	}
	if s == nil {
		return fmt.Errorf("cluster: nil space")
	}
	return nil
}

// Members returns S*pq: every node within d(p,q) of both p and q, in
// ascending index order. p and q are always members.
func Members(s metric.Space, p, q int) []int { return firstMembers(s, p, q, s.N()) }

// firstMembers returns the first k members of S*pq (all of them when
// |S*pq| <= k), stopping the scan at the k-th.
func firstMembers(s metric.Space, p, q, k int) []int {
	members := make([]int, 0, k)
	if m, ok := s.(*metric.Matrix); ok {
		rp, rq := m.Row(p), m.Row(q)
		rq = rq[:len(rp)]
		dpq := rp[q]
		for x := 0; x < len(rp) && len(members) < k; x++ {
			if max(rp[x], rq[x]) <= dpq {
				members = append(members, x)
			}
		}
		return members
	}
	dpq := s.Dist(p, q)
	for x, n := 0, s.N(); x < n && len(members) < k; x++ {
		if s.Dist(x, p) <= dpq && s.Dist(x, q) <= dpq {
			members = append(members, x)
		}
	}
	return members
}

// countMembers returns |S*pq| without materializing the member slice:
// the allocation-free form every O(n^3) scan uses, reserving
// firstMembers for the single pair that answers a query. Over a
// *metric.Matrix it reads rows p and q as slices (row x of a symmetric
// matrix is also its column) and counts without a data-dependent branch;
// any other space goes through Dist.
func countMembers(s metric.Space, p, q int) int {
	count := 0
	if m, ok := s.(*metric.Matrix); ok {
		rp, rq := m.Row(p), m.Row(q)
		rq = rq[:len(rp)]
		dpq := rp[q]
		for x, a := range rp {
			if max(a, rq[x]) <= dpq { // false for NaN, as below
				count++
			}
		}
		return count
	}
	dpq := s.Dist(p, q)
	for x, n := 0, s.N(); x < n; x++ {
		if s.Dist(x, p) <= dpq && s.Dist(x, q) <= dpq {
			count++
		}
	}
	return count
}

// MaxClusterSize returns the largest k for which FindCluster(s, k, l)
// succeeds, together with a witness cluster of that size. Spaces where no
// pair satisfies d(p,q) <= l yield min(N,1) with a singleton (or nil)
// witness: a lone node is trivially a "cluster" of size one, but no k >= 2
// query can be satisfied.
func MaxClusterSize(s metric.Space, l float64) (int, []int) {
	if s == nil || s.N() == 0 {
		return 0, nil
	}
	best, bp, bq := 0, -1, -1
	for p := 0; p < s.N(); p++ {
		for q := p + 1; q < s.N(); q++ {
			if s.Dist(p, q) > l {
				continue
			}
			if c := countMembers(s, p, q); c > best {
				best, bp, bq = c, p, q
			}
		}
	}
	if best == 0 {
		return 1, []int{0}
	}
	return best, firstMembers(s, bp, bq, best)
}

// MaxClusterSizeBinary computes the same maximum via binary search over k
// with repeated FindCluster calls, the strategy Algorithm 3 suggests for a
// node's local clustering space. It exists for the ablation benchmark
// comparing the two strategies; MaxClusterSize is the direct O(n^3) scan.
func MaxClusterSizeBinary(s metric.Space, l float64) (int, error) {
	if s == nil || s.N() == 0 {
		return 0, nil
	}
	lo, hi := 2, s.N() // invariant: answer < hi+1
	if c, err := FindCluster(s, 2, l); err != nil {
		return 0, err
	} else if c == nil {
		return 1, nil
	}
	// Largest feasible k in [lo, hi].
	for lo < hi {
		mid := (lo + hi + 1) / 2
		c, err := FindCluster(s, mid, l)
		if err != nil {
			return 0, err
		}
		if c != nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// MinDiameter finds k nodes whose diameter is minimal (the k-diameter
// problem of Aggarwal et al., exact in tree metric spaces): scanning node
// pairs by ascending distance, the first pair whose S*pq reaches k nodes
// determines the optimal cluster, because diam(S*pq) = d(p,q) in a tree
// metric. It returns the members and the achieved diameter, or nil when
// the space has fewer than k nodes.
func MinDiameter(s metric.Space, k int) ([]int, float64, error) {
	if k < 2 {
		return nil, 0, fmt.Errorf("cluster: size constraint k must be >= 2, got %d", k)
	}
	if s == nil {
		return nil, 0, fmt.Errorf("cluster: nil space")
	}
	if s.N() < k {
		return nil, 0, nil
	}
	for _, pr := range sortedPairs(s) {
		if countMembers(s, int(pr.p), int(pr.q)) >= k {
			return firstMembers(s, int(pr.p), int(pr.q), k), pr.d, nil
		}
	}
	return nil, 0, nil
}

// Valid reports whether the given nodes form a cluster of diameter at most
// l in s (checking every pair against the actual distances, with no
// tree-metric assumption).
func Valid(s metric.Space, nodes []int, l float64) bool {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if s.Dist(nodes[i], nodes[j]) > l {
				return false
			}
		}
	}
	return true
}

// BruteForce searches all subsets for k nodes with true diameter at most l
// (exact in any metric space, exponential time). It is the test reference
// for FindCluster's completeness on tree metrics.
func BruteForce(s metric.Space, k int, l float64) ([]int, error) {
	if err := validate(s, k, l); err != nil {
		return nil, err
	}
	picked := make([]int, 0, k)
	var rec func(next int) []int
	rec = func(next int) []int {
		if len(picked) == k {
			out := make([]int, k)
			copy(out, picked)
			return out
		}
		// Not enough nodes left to finish.
		if s.N()-next < k-len(picked) {
			return nil
		}
		for x := next; x < s.N(); x++ {
			ok := true
			for _, m := range picked {
				if s.Dist(m, x) > l {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			picked = append(picked, x)
			if out := rec(x + 1); out != nil {
				return out
			}
			picked = picked[:len(picked)-1]
		}
		return nil
	}
	return rec(0), nil
}

// pair is one (p, q) candidate with its distance. Node IDs are int32
// indices into the space — the index never stores pointers, so the whole
// pair table is one contiguous allocation the GC scans in O(1).
type pair struct {
	d    float64
	p, q int32
}

// sortedPairs returns every pair p < q ordered by (distance, p, q), with
// -0 equal to +0 and every NaN distance last. The key is unique per
// pair, so any correct sort gives the same order.
func sortedPairs(s metric.Space) []pair {
	n := s.N()
	pairs := make([]pair, 0, n*(n-1)/2)
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			pairs = append(pairs, pair{p: int32(p), q: int32(q), d: s.Dist(p, q)})
		}
	}
	sortByDist(pairs)
	return pairs
}

// distKey maps d to a key whose unsigned order is d's numeric order: -0
// and +0 share a key, and every NaN sorts after +Inf.
func distKey(d float64) uint64 {
	switch {
	case d == 0:
		return 1 << 63
	case d != d:
		return math.MaxUint64
	}
	b := math.Float64bits(d)
	if b>>63 == 1 {
		return ^b // negative: a larger magnitude sorts first
	}
	return b | 1<<63
}

// sortByDist's shape: under radixMin pairs (a per-peer index sorts a few
// dozen) a comparison sort beats the radix passes' fixed cost; a digit
// is radixBits wide, so six passes with 2048-entry tables cover a key.
const (
	radixMin  = 256
	radixBits = 11
)

// sortByDist stably sorts pairs, given in (p, q) order, by distKey. A
// stable sort on the key alone leaves ties in (p, q) order, so the result
// is sortedPairs' (distance, p, q) order. Large inputs take an LSD radix
// sort over the key's digits, skipping each digit all keys share.
func sortByDist(pairs []pair) {
	if len(pairs) < radixMin {
		slices.SortStableFunc(pairs, func(a, b pair) int { return cmp.Compare(distKey(a.d), distKey(b.d)) })
		return
	}
	const passes = (64 + radixBits - 1) / radixBits
	const mask = 1<<radixBits - 1
	counts := make([][1 << radixBits]int32, passes)
	for _, pr := range pairs {
		k := distKey(pr.d)
		for b := range counts {
			counts[b][k>>(b*radixBits)&mask]++
		}
	}
	src, dst := pairs, make([]pair, len(pairs))
	first := distKey(pairs[0].d)
	for b := range counts {
		c := &counts[b]
		if int(c[first>>(b*radixBits)&mask]) == len(pairs) {
			continue
		}
		at := int32(0)
		for digit, cnt := range c {
			c[digit] = at
			at += cnt
		}
		for _, pr := range src {
			digit := distKey(pr.d) >> (b * radixBits) & mask
			dst[c[digit]] = pr
			c[digit]++
		}
		src, dst = dst, src
	}
	copy(pairs, src) // a no-op when an even number of passes ran
}

// sizePairs returns |S*pq| for every pair p < q, indexed p*n+q, in one
// sweep over pairs (sortedPairs' order). S*pq = B_p(t) ∩ B_q(t) for
// t = d(p,q), where B_x(t) = {y : d(x,y) <= t}. The sweep keeps every
// ball, less its centre, as one row of an n×n bitset and walks the pairs
// one tie group at a time: it first adds each pair of the group to both
// balls, then sizes each pair of the group as the popcount of the AND of
// two rows — n/64 word operations where countMembers makes n
// comparisons — plus p and q themselves, each a member when its own
// distance d(x,x) (zero in a *metric.Matrix) is within t. NaN pairs sort
// last and are sized 0, as countMembers sizes them.
func sizePairs(s metric.Space, pairs []pair) []int32 {
	n := s.N()
	sizes := make([]int32, n*n)
	words := (n + 63) / 64
	balls := make([]uint64, n*words)
	own := make([]float64, n)
	for x := range own {
		own[x] = s.Dist(x, x)
	}
	for i := 0; i < len(pairs) && pairs[i].d == pairs[i].d; {
		t := pairs[i].d
		j := i + 1
		for j < len(pairs) && pairs[j].d <= t {
			j++
		}
		for _, pr := range pairs[i:j] {
			balls[int(pr.p)*words+int(pr.q>>6)] |= 1 << (pr.q & 63)
			balls[int(pr.q)*words+int(pr.p>>6)] |= 1 << (pr.p & 63)
		}
		for _, pr := range pairs[i:j] {
			bp := balls[int(pr.p)*words:][:words]
			bq := balls[int(pr.q)*words:][:words]
			count := 0
			for w, a := range bp {
				count += bits.OnesCount64(a & bq[w])
			}
			for _, x := range [2]int32{pr.p, pr.q} {
				if own[x] <= t {
					count++
				}
			}
			sizes[int(pr.p)*n+int(pr.q)] = int32(count)
		}
		i = j
	}
	return sizes
}

// Index precomputes, for one metric space, every |S*pq|, so that queries
// with arbitrary (k, l) are answered by a binary search after one
// sorted-pair sweep (see NewIndex). Index.Find returns exactly what
// FindCluster would.
//
// An Index is safe for concurrent use: the precomputed tables are never
// written after construction, and each per-k staircase is built once
// under a mutex and then read without locking.
type Index struct {
	space     metric.Space
	n         int
	lexSizes  []int32 // |S*pq| indexed p*n+q (p < q); n < 2^31 always holds
	pairs     []pair  // sorted ascending by distance, for MaxSize
	prefixMax []int32 // prefixMax[i] = max |S*pq| over pairs[0..i]

	// stairs[k] lists, in lexicographic (p, q) order, each pair with
	// |S*pq| >= k whose distance is strictly below that of every such
	// pair before it. Distances therefore strictly decrease, and the
	// answer to (k, l) is the first entry with d <= l. A table is built
	// on the first query for its k; at most n-1 ever exist.
	buildMu sync.Mutex
	stairs  []atomic.Pointer[[]pair] // guarded by buildMu for stores; loads are lock-free

	// epoch tags the membership generation the indexed space was derived
	// at (predtree.Forest.Epoch). The index answers over a fixed host
	// set, so once membership moves, its answers describe hosts that may
	// no longer exist: FindAt rejects queries carrying a different epoch
	// instead of answering them silently wrong.
	epoch uint64
}

func errNilSpace() error { return fmt.Errorf("cluster: nil space") }

// NewIndex builds the query index for s: it sorts the n²/2 pairs by
// distance and sizes every S*pq in one sweep over them (sizePairs), in
// O(n³/64) word operations. s must be symmetric.
func NewIndex(s metric.Space) (*Index, error) {
	if s == nil {
		return nil, errNilSpace()
	}
	n := s.N()
	pairs := sortedPairs(s)
	lexSizes := sizePairs(s, pairs)
	prefixMax := make([]int32, len(pairs))
	running := int32(0)
	for i, pr := range pairs {
		running = max(running, lexSizes[int(pr.p)*n+int(pr.q)])
		prefixMax[i] = running
	}
	return &Index{
		space: s, n: n, lexSizes: lexSizes, pairs: pairs,
		prefixMax: prefixMax, stairs: make([]atomic.Pointer[[]pair], n+1),
	}, nil
}

// ErrStaleIndex is returned by FindAt when the caller's membership epoch
// differs from the one the index was built at. Callers should rebuild the
// index from the current forest and retry rather than serve the answer.
var ErrStaleIndex = errors.New("cluster: index is stale")

// N reports the number of nodes in the indexed space.
func (ix *Index) N() int { return ix.space.N() }

// lastWithin returns the index of the last pair with d <= l, or -1.
func (ix *Index) lastWithin(l float64) int {
	return sort.Search(len(ix.pairs), func(i int) bool { return ix.pairs[i].d > l }) - 1
}

// MaxSize returns the largest cluster size achievable with diameter
// constraint l (semantics identical to MaxClusterSize).
func (ix *Index) MaxSize(l float64) int {
	last := ix.lastWithin(l)
	if last < 0 {
		if ix.space.N() == 0 {
			return 0
		}
		return 1
	}
	return int(ix.prefixMax[last])
}

// Find answers a (k, l) query, returning the same cluster FindCluster
// would compute directly, or nil when none exists. A feasible query
// binary-searches the staircase for k and allocates only its answer.
func (ix *Index) Find(k int, l float64) ([]int, error) {
	if err := validate(ix.space, k, l); err != nil {
		return nil, err
	}
	last := ix.lastWithin(l)
	if last < 0 || int(ix.prefixMax[last]) < k {
		return nil, nil
	}
	// Some pair within l has |S*pq| >= k, so the lexicographically first
	// one is on the staircase and the search stops inside it.
	st := ix.staircase(k)
	pr := st[sort.Search(len(st), func(i int) bool { return st[i].d <= l })]
	return firstMembers(ix.space, int(pr.p), int(pr.q), k), nil
}

// staircase returns the table for k (2 <= k <= n), building it in one
// O(n^2) pass over lexSizes on first use.
func (ix *Index) staircase(k int) []pair {
	if st := ix.stairs[k].Load(); st != nil {
		mCacheHits.Inc()
		return *st
	}
	ix.buildMu.Lock()
	defer ix.buildMu.Unlock()
	if st := ix.stairs[k].Load(); st != nil { // built while we waited
		mCacheHits.Inc()
		return *st
	}
	mCacheMisses.Inc()
	var st []pair
	for p := 0; p < ix.n; p++ {
		for q := p + 1; q < ix.n; q++ {
			if int(ix.lexSizes[p*ix.n+q]) < k {
				continue
			}
			if d := ix.space.Dist(p, q); len(st) == 0 || d < st[len(st)-1].d {
				st = append(st, pair{d: d, p: int32(p), q: int32(q)})
			}
		}
	}
	ix.stairs[k].Store(&st)
	return st
}

// Rung is one step of a ladder: the pair (P, Q) and Size = |S*PQ|.
type Rung struct {
	P, Q, Size int32
}

// Ladder returns, in lexicographic (p, q) order, each pair with
// d(p,q) <= l whose |S*pq| is larger than that of every earlier pair
// within l. Sizes therefore strictly increase, and FindCluster(s, k, l)
// is the first k members of Climb(ladder, k): the first qualifying pair
// of the scan is always a rung.
func (ix *Index) Ladder(l float64) []Rung {
	rungs, _ := ix.Ladders([]float64{l})
	return rungs
}

// Ladders returns the ladder of every l in ls back to back in one
// allocation: ladder i is rungs[ends[i-1]:ends[i]], starting at 0 for
// i = 0. It makes two O(n^2 |ls|) passes over the sized pairs, one to
// count the rungs and one to write them.
func (ix *Index) Ladders(ls []float64) (rungs []Rung, ends []int32) {
	ends = make([]int32, len(ls))
	scratch := make([]int32, 2*len(ls))
	best, next := scratch[:len(ls)], scratch[len(ls):]
	ix.climbPairs(ls, best, func(i int, _ Rung) { ends[i]++ })
	total := int32(0)
	for i, c := range ends {
		next[i] = total
		total += c
		ends[i] = total
	}
	rungs = make([]Rung, total)
	clear(best)
	ix.climbPairs(ls, best, func(i int, r Rung) {
		rungs[next[i]] = r
		next[i]++
	})
	return rungs, ends
}

// climbPairs visits the pairs in lexicographic order and calls rung(i, r)
// for each pair that extends ladder i: d(p,q) <= ls[i] and |S*pq| above
// best[i], which it raises to the pair's size.
func (ix *Index) climbPairs(ls []float64, best []int32, rung func(i int, r Rung)) {
	for p := 0; p < ix.n; p++ {
		for q := p + 1; q < ix.n; q++ {
			size, d := ix.lexSizes[p*ix.n+q], ix.space.Dist(p, q)
			for i, l := range ls {
				if d <= l && size > best[i] {
					best[i] = size
					rung(i, Rung{P: int32(p), Q: int32(q), Size: size})
				}
			}
		}
	}
}

// Climb returns the first rung of ladder whose Size is at least k, and
// false when every rung is smaller.
func Climb(ladder []Rung, k int) (Rung, bool) {
	i := sort.Search(len(ladder), func(i int) bool { return int(ladder[i].Size) >= k })
	if i == len(ladder) {
		return Rung{}, false
	}
	return ladder[i], true
}

// Epoch reports the membership epoch the index was built at (zero for
// indexes built with plain NewIndex).
func (ix *Index) Epoch() uint64 { return ix.epoch }

// FindAt answers a (k, l) query like Find, but first checks that the
// caller's membership epoch matches the one the index was built at. A
// mismatch returns an error wrapping ErrStaleIndex instead of an answer:
// after a join or leave the precomputed tables describe a host set that
// no longer exists, and a silently wrong cluster is worse than a retry.
func (ix *Index) FindAt(epoch uint64, k int, l float64) ([]int, error) {
	if epoch != ix.epoch {
		return nil, fmt.Errorf("cluster: index built at membership epoch %d, queried at %d: %w",
			ix.epoch, epoch, ErrStaleIndex)
	}
	return ix.Find(k, l)
}
