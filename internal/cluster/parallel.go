// Worker-count plumbing for Algorithm 1's callers. The index build is
// one sequential sweep (NewIndex), cheaper on one core than the sharded
// row scans it replaced were on two, and Index.Find is a binary search.
package cluster

import (
	"runtime"

	"bwcluster/internal/metric"
)

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

// NewIndexParallelAt builds the index NewIndex builds and tags it with
// the membership epoch (predtree.Forest.Epoch) the space was derived at
// (see FindAt for the staleness contract). workers is ignored: the build
// is one sweep.
func NewIndexParallelAt(s metric.Space, workers int, epoch uint64) (*Index, error) {
	ix, err := NewIndex(s)
	if err != nil {
		return nil, err
	}
	ix.epoch = epoch
	return ix, nil
}

// FindParallel is Find; workers is ignored. A staircase lookup has no
// scan left to shard.
// Kept: perfbench calls it (ROADMAP 1(c)).
func (ix *Index) FindParallel(k int, l float64, workers int) ([]int, error) { return ix.Find(k, l) }
