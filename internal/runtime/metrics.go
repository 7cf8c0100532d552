package runtime

import "bwcluster/internal/telemetry"

// Telemetry for the asynchronous engine: message deliveries by kind
// (mirroring the atomic Traffic counters into the exposition registry,
// labeled by transport.Kind.String, which returns package constants),
// and per-query hop distributions. Drops are counted by the transport
// layer (bwc_transport_dropped_total, and bwc_transport_faults_total
// for the faults a FaultTransport injects). Increments happen on the
// peer goroutines' delivery path, so they must stay allocation-free.
var (
	mMessages = telemetry.NewCounterVec("bwc_runtime_messages_total",
		"Messages delivered by the asynchronous peer runtime, by kind.",
		"kind")
	mRuntimeQueryHops = telemetry.NewHistogram("bwc_runtime_query_hops",
		"Overlay hops traveled per asynchronous (message-forwarded) query.",
		telemetry.HopBuckets())
	mPendingReplies = telemetry.NewGauge("bwc_runtime_pending_replies",
		"In-flight query reply-table entries (cluster + node). Bounded: callers drop their entry on timeout and the health monitor sweeps leaked entries after a TTL.")
	mPendSwept = telemetry.NewCounter("bwc_runtime_pending_swept_total",
		"Pending-reply entries removed by the health monitor's TTL sweep; any increment indicates a caller leaked its entry.")
	mConverged = telemetry.NewGauge("bwc_runtime_converged",
		"1 when the gossip version counter has been quiet for the convergence window, else 0 (the readiness signal).")
	mGossipAge = telemetry.NewGauge("bwc_runtime_gossip_age_ticks",
		"Worst per-neighbor gossip-age watermark across local peers, in monitor ticks; a growing value means some link has gone quiet.")
	mTraceEvents = telemetry.NewCounter("bwc_runtime_trace_events_total",
		"Span events minted by traced hops (reported to the trace origin best-effort).")
	mHostsRemoved = telemetry.NewCounter("bwc_runtime_hosts_removed_total",
		"Peers removed by RemoveHost (crash model: overlay spliced, substrate untouched).")
	mHostsEvicted = telemetry.NewCounter("bwc_runtime_hosts_evicted_total",
		"Peers evicted by EvictHost (membership model: substrate repaired incrementally).")
	mPendCanceled = telemetry.NewCounter("bwc_runtime_pending_canceled_total",
		"Pending queries resolved with ErrOriginRemoved because their origin host was removed mid-flight.")
	mMembershipReaped = telemetry.NewCounter("bwc_runtime_membership_reaped_total",
		"Hosts the liveness tracker declared dead and the runtime auto-evicted.")
)
