package bwcluster

import (
	"fmt"
	"time"

	"bwcluster/internal/metric"
	"bwcluster/internal/telemetry"
)

// Facade-level telemetry: end-to-end latencies of the two query paths
// and the cost of the most recent construction. Histograms observe wall
// time only — instrumentation reads no random state and feeds nothing
// back into the algorithms, so seed determinism is unaffected (the
// regression tests run with these series active).
var (
	mBuildSeconds = telemetry.NewGauge("bwc_system_build_seconds",
		"Wall time of the most recent System construction.")
	mFindClusterSeconds = telemetry.NewHistogram("bwc_system_findcluster_seconds",
		"End-to-end latency of centralized FindCluster queries.",
		telemetry.DurationBuckets())
	mQuerySeconds = telemetry.NewHistogram("bwc_system_query_seconds",
		"End-to-end latency of decentralized Query calls.",
		telemetry.DurationBuckets())
)

// QueryTraced runs the same decentralized query as Query while
// recording a trace: the returned span tree carries one child span per
// overlay hop (peer id, CRT promise, candidate radius, local
// clustering-space size) under a root span with the query parameters.
// The span is finished on return and marshals to JSON.
func (s *System) QueryTraced(start, k int, minBandwidth float64) (QueryResult, *telemetry.Span, error) {
	span := telemetry.StartSpan("query")
	span.SetAttr("start", start)
	span.SetAttr("minBandwidthMbps", minBandwidth)
	defer span.Finish()
	if err := s.checkHost(start); err != nil {
		return QueryResult{}, span, err
	}
	l, err := metric.DistanceForBandwidthConstraint(minBandwidth, s.c)
	if err != nil {
		return QueryResult{}, span, fmt.Errorf("bwcluster: %w", err)
	}
	t0 := time.Now()
	res, err := s.state.Net.QueryTraced(start, k, l, span)
	mQuerySeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		return QueryResult{}, span, fmt.Errorf("bwcluster: %w", err)
	}
	out := QueryResult{Members: res.Cluster, Hops: res.Hops, AnsweredBy: res.Answered}
	if res.Class > 0 {
		out.Class = s.c / res.Class
	}
	span.SetAttr("found", out.Found())
	span.SetAttr("hops", out.Hops)
	span.SetAttr("answeredBy", out.AnsweredBy)
	return out, span, nil
}
