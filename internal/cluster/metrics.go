package cluster

import "bwcluster/internal/telemetry"

// Telemetry for the Algorithm 1 answer paths. The scan counter sits at
// row granularity (one atomic add per O(n) row, not per O(n^2) pair), so
// the instrumented scan is indistinguishable from the bare one; the
// series quantify how much scan work direct queries cost and how often
// Index queries reuse a per-k staircase instead of building one.
var (
	mScanRows = telemetry.NewCounter("bwc_cluster_scan_rows_total",
		"Candidate-scan rows evaluated by Algorithm 1's direct scan.")
	mCacheHits = telemetry.NewCounter("bwc_cluster_index_cache_hits_total",
		"Find served by a built per-k table.")
	mCacheMisses = telemetry.NewCounter("bwc_cluster_index_cache_misses_total",
		"per-k table builds.")
)
