// Parallel execution layer for Algorithm 1's exhaustive pass. Sizing
// |S*pq| is independent across pairs, so the O(n^3) index build shards
// cleanly across a worker pool (the same observation that makes
// distributed metric facility location "super-fast": per-candidate
// evaluations share no state). Workers claim row ranges from an atomic
// counter and write disjoint outputs, so the result never depends on the
// schedule. (k, l) queries are not sharded: Index.Find answers them by
// binary search.
package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bwcluster/internal/metric"
)

// minParallelN is the space size under which sharding overhead outweighs
// the scan itself and the parallel entry points fall back to the
// sequential code.
const minParallelN = 64

// chunkTargetOps sizes the work-stealing chunks: a worker claims enough
// rows per atomic fetch that the chunk costs roughly this many distance
// evaluations — about 100µs of work — so the claim counter is touched a
// few thousand times per second at most, while chunks stay small enough
// that the triangular scan's shrinking rows cannot strand one worker
// with a disproportionate tail.
const chunkTargetOps = 1 << 16

// chunkRows returns how many rows of an n-row triangular pair scan a
// worker claims per fetch. The average row costs ~n²/2 evaluations
// (each of the ~n/2 pairs in a row sizes an S*pq in O(n)); the chunk is
// additionally capped at a fraction of the per-worker share so there are
// always enough chunks left to steal.
func chunkRows(n, workers int) int {
	if n <= 0 || workers <= 0 {
		return 1
	}
	perRow := n * n / 2
	if perRow < 1 {
		perRow = 1
	}
	chunk := chunkTargetOps / perRow
	if maxChunk := n / (4 * workers); chunk > maxChunk {
		chunk = maxChunk
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// Workers normalizes a worker-count knob: values < 1 mean "one worker per
// usable CPU" (GOMAXPROCS, so `go test -cpu` and container CPU limits are
// respected), and the count never exceeds n (no point idling goroutines).
func Workers(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

// forRowsParallel runs fn(p) for every row p in [0, n) across workers,
// with no early exit (for work that must cover all rows, like index
// builds). Workers claim chunkRows-sized row ranges from an atomic
// counter — work stealing at ~100µs granularity — so shards partition
// the row space dynamically instead of by fixed split. fn must be safe
// for concurrent calls on distinct rows.
func forRowsParallel(n, workers int, fn func(p int)) {
	if workers <= 1 {
		for p := 0; p < n; p++ {
			fn(p)
		}
		return
	}
	chunk := int64(chunkRows(n, workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(chunk) - chunk
				if lo >= int64(n) {
					return
				}
				hi := lo + chunk
				if hi > int64(n) {
					hi = int64(n)
				}
				for p := int(lo); p < int(hi); p++ {
					fn(p)
				}
			}
		}()
	}
	wg.Wait()
}

// NewIndexParallelAt builds the same index NewIndex builds, sharding
// the O(n^3) |S*pq| precomputation across workers, and tags it with the
// membership epoch (predtree.Forest.Epoch) the space was derived at (see
// FindAt for the staleness contract). workers < 1 uses one worker per
// CPU; the space must be safe for concurrent Dist calls.
func NewIndexParallelAt(s metric.Space, workers int, epoch uint64) (ix *Index, err error) {
	if s == nil {
		return nil, errNilSpace()
	}
	n := s.N()
	if workers = Workers(workers, n); workers == 1 || n < minParallelN {
		ix, err = NewIndex(s)
	} else {
		lexSizes := make([]int32, n*n)
		forRowsParallel(n, workers, func(p int) {
			for q := p + 1; q < n; q++ {
				lexSizes[p*n+q] = int32(countMembers(s, p, q))
			}
		})
		ix = finishIndex(s, n, lexSizes)
	}
	if err != nil {
		return nil, err
	}
	ix.epoch = epoch
	return ix, nil
}

// FindParallel is Find; workers is ignored. A staircase lookup has no
// scan left to shard.
func (ix *Index) FindParallel(k int, l float64, workers int) ([]int, error) { return ix.Find(k, l) }
