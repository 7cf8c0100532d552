package sim

import (
	"sync"
	"sync/atomic"

	"bwcluster/internal/cluster"
)

// forEachIndexed runs fn(i) for every i in [0, n) across one worker per
// GOMAXPROCS (capped at n) and returns the lowest-index error, if any.
// Each experiment runner that sweeps an independent series —
// treeness noise levels, ablation curves, scalability sizes — derives all
// randomness for slot i from the config seed alone, so fanning the slots
// out changes nothing but wall-clock time: results land at their own
// index, and the emitted series order is identical to the sequential
// sweep's.
func forEachIndexed(n int, fn func(i int) error) error {
	workers := cluster.Workers(0, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
