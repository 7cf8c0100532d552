package transport

import "bwcluster/internal/telemetry"

// Telemetry for the transport layer. Delivery and drop counters make
// silent loss observable: before this package existed, a gossip message
// hitting a full inbox vanished without trace (the runtime's
// retry-next-tick path), which made convergence stalls under pressure
// impossible to diagnose. Increments happen on send/receive hot paths,
// so labels are package-constant strings (Kind.String returns constants)
// and no increment allocates.
var (
	mDelivered = telemetry.NewCounterVec("bwc_transport_delivered_total",
		"Messages accepted into a destination inbox, by kind.",
		"kind")
	mDropped = telemetry.NewCounterVec("bwc_transport_dropped_total",
		"Messages dropped by a transport, by reason (inbox_full: best-effort send against a full inbox; queue_full: TCP outbound queue full; no_route: no address for the destination peer; unknown_peer: destination not registered at the receiving process; superseded: gossip coalesced away by a newer value for the same edge and kind).",
		"reason")
	mFaults = telemetry.NewCounterVec("bwc_transport_faults_total",
		"Deterministic faults injected by FaultTransport, by type (drop, duplicate, delay, reorder, partition).",
		"fault")
	mTCPFrames = telemetry.NewCounterVec("bwc_transport_tcp_frames_total",
		"TCP frames moved, by direction (sent, recv).",
		"dir")
	mTCPReconnects = telemetry.NewCounter("bwc_transport_tcp_reconnects_total",
		"TCP dial attempts made after a connection was lost or refused (exponential backoff with jitter between attempts).")
)

// DeliveredTotal returns the process-wide delivered-message count (the
// bwc_transport_delivered_total family), summed over every wire kind.
// The bandwidth ledger records at exactly the delivery sites that
// increment this family, so for a single-transport process the ledger's
// cumulative message total reconciles with the counter delta around a
// run — the simulation harness asserts that equality.
func DeliveredTotal() uint64 {
	var sum uint64
	for k := KindNodeInfo; k <= KindSnapshot; k++ {
		sum += mDelivered.Value(k.String())
	}
	return sum
}

// Drop reasons and frame directions used as telemetry labels.
const (
	reasonInboxFull   = "inbox_full"
	reasonQueueFull   = "queue_full"
	reasonNoRoute     = "no_route"
	reasonUnknownPeer = "unknown_peer"
	reasonSuperseded  = "superseded"

	dirSent = "sent"
	dirRecv = "recv"
)

// Fault type labels.
const (
	faultDrop      = "drop"
	faultDuplicate = "duplicate"
	faultDelay     = "delay"
	faultReorder   = "reorder"
	faultPartition = "partition"
)
