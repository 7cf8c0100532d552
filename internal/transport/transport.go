// Package transport moves the asynchronous runtime's protocol messages
// between peers. It decouples protocol logic (package runtime: Algorithms
// 2-4 over peer state) from message movement, so the same protocol code
// runs over in-process channels (ChanTransport), a deterministic fault
// injector (FaultTransport), or real TCP sockets (TCPTransport) without
// change.
//
// The package owns the wire schema: Message and its payload structs are
// the frame format TCPTransport gob-encodes, and the in-memory unit the
// channel transports pass by reference. Payload fields are therefore
// exported and contain only plain data — no channels, no function values
// — so every message that crosses a goroutine boundary can also cross a
// process boundary. Query answers travel as messages too (KindResult,
// KindNodeResult) routed back to the querying peer, which is what makes
// multi-process routing possible at all. Hop reports (KindTrace) carry
// a telemetry.SpanEvent, the form the querying runtime's trace
// collector assembles, so tracing has one event type on and off the
// wire.
//
// Delivery contract, shared by every implementation:
//
//   - TrySend is best-effort and non-blocking: a full inbox (or full
//     outbound queue) drops the message, counts the drop, and returns
//     ErrInboxFull. Gossip uses this mode — the protocol is periodic and
//     idempotent, so a dropped gossip message is simply re-sent next
//     tick.
//   - Send blocks until the message is accepted for delivery, the
//     destination unregisters, or the transport closes. Query routing
//     uses this mode (from helper goroutines, never the peer main loop).
//   - Neither mode guarantees end-to-end delivery: FaultTransport drops
//     on purpose, and TCP delivers at-most-once per send. Callers that
//     need an answer must time out and retry (the runtime's query API
//     does).
//
// transport is an I/O package under the repository's determinism policy
// (DESIGN.md §8e): it may read wall clocks for timers, deadlines and
// reconnect backoff, but all injected-fault randomness must come from an
// explicit seed, and the global math/rand stream stays banned.
package transport

import (
	"errors"

	"bwcluster/internal/telemetry"
)

// Kind discriminates the protocol messages carried by a transport.
type Kind uint8

// The wire message kinds, mirroring the runtime's protocol: two periodic
// gossip kinds (Algorithms 2 and 3), two query kinds in flight
// (Algorithm 4 and the single-node search), and their answers routed
// back to the origin peer.
const (
	// KindNodeInfo is Algorithm 2 gossip: aggregated node information.
	KindNodeInfo Kind = iota + 1
	// KindCRT is Algorithm 3 gossip: a cluster readiness table.
	KindCRT
	// KindQuery is an Algorithm 4 cluster query being forwarded.
	KindQuery
	// KindNodeQuery is a single-node search being forwarded.
	KindNodeQuery
	// KindResult is a cluster query answer routed back to its origin.
	KindResult
	// KindNodeResult is a node search answer routed back to its origin.
	KindNodeResult
	// KindTrace is a span-event report: a traced hop telling the trace's
	// origin what happened on a remote peer. Fire-and-forget; a dropped
	// report shows up as an explicit gap in the reassembled trace tree.
	KindTrace
	// KindSnapshot is one chunk of a streamed system snapshot (the
	// wireVersion-2 gob persistence format) flowing from a fleet builder
	// shard to a warm read replica. Chunks are reliable (never shed under
	// backpressure) but the stream as a whole is at-most-once per send:
	// the replica detects a hole by Seq and re-requests the whole stream.
	KindSnapshot
)

// Gossip reports whether k is one of the periodic, idempotent gossip
// kinds. Transports may treat gossip as droppable: the runtime re-sends
// it every tick, so loss only delays convergence.
func (k Kind) Gossip() bool { return k == KindNodeInfo || k == KindCRT }

// BestEffort reports whether dropping k is harmless to protocol
// correctness: the gossip kinds (re-sent every tick) and trace reports
// (a loss becomes a visible gap, never a wrong answer). Transports use
// this to decide what may be shed under backpressure, and FaultTransport
// uses it as the GossipOnly fault scope — queries and results are the
// only kinds whose loss changes an answer.
func (k Kind) BestEffort() bool { return k.Gossip() || k == KindTrace }

// String returns the telemetry label for the kind.
func (k Kind) String() string {
	switch k {
	case KindNodeInfo:
		return "nodeinfo"
	case KindCRT:
		return "crt"
	case KindQuery:
		return "query"
	case KindNodeQuery:
		return "nodequery"
	case KindResult:
		return "result"
	case KindNodeResult:
		return "noderesult"
	case KindTrace:
		return "trace"
	case KindSnapshot:
		return "snapshot"
	}
	return "unknown"
}

// Message is the unit a transport moves: one protocol message addressed
// peer-to-peer. Exactly one payload field matching Kind is set. The
// struct is the TCP frame schema (gob), so all fields are exported plain
// data.
type Message struct {
	// Kind selects which payload field is meaningful.
	Kind Kind
	// From is the sending peer (-1 for client-submitted queries).
	From int
	// To is the destination peer.
	To int
	// Nodes is the KindNodeInfo payload: a propagated node-id set.
	Nodes []int
	// CRT is the KindCRT payload: per-class max cluster sizes.
	CRT []int
	// Query is the KindQuery payload.
	Query *Query
	// NodeQuery is the KindNodeQuery payload.
	NodeQuery *NodeQuery
	// Result is the KindResult payload.
	Result *Result
	// NodeResult is the KindNodeResult payload.
	NodeResult *NodeResult
	// Snapshot is the KindSnapshot payload.
	Snapshot *Snapshot
	// Trace is the distributed trace context riding on a query or
	// node-query message (nil when the operation is untraced). Results
	// carry it back so the origin can time the return leg.
	Trace *TraceContext
	// Event is the KindTrace payload: one hop's span report, in the form
	// the origin's telemetry.TraceCollector assembles.
	Event *telemetry.SpanEvent
}

// Snapshot is one chunk of a streamed system snapshot. A stream is a
// sequence of chunks sharing an ID, Seq running 0..Total-1; the payload
// bytes concatenated in Seq order are exactly what System.Save wrote
// (the wireVersion-2 gob format), so the receiver hands them straight
// to Load and the persistence layer's version/corruption checks apply
// unchanged. Chunks must stay well under the transport frame limit;
// senders split at SnapshotChunkSize.
type Snapshot struct {
	// ID identifies the stream; the sender mints it, and a receiver
	// discards chunks of any stream other than the newest it has seen.
	ID uint64
	// Epoch is the membership epoch of the snapshotted system, carried on
	// every chunk so a receiver can drop a stale stream without
	// assembling it.
	Epoch uint64
	// Seq is this chunk's position in the stream, 0-based.
	Seq int
	// Total is the number of chunks in the stream.
	Total int
	// Data is the chunk's payload bytes.
	Data []byte
}

// SnapshotChunkSize is the payload size snapshot senders split streams
// at: comfortably under maxFrame after gob framing overhead, large
// enough that a forest snapshot ships in a handful of frames.
const SnapshotChunkSize = 256 * 1024

// TraceContext is the compact trace context propagated on the message
// envelope: enough for the receiving hop to mint its own
// telemetry.SpanEvent (its parent is ParentSpan) and report it to the
// trace's origin as a KindTrace message. Requests carry it forward and
// answers carry it back, so the origin can time the return leg. Nil
// context means tracing is off and costs one pointer comparison per
// hop.
type TraceContext struct {
	// TraceID identifies the distributed operation (the origin's query
	// id, unique per origin runtime).
	TraceID uint64
	// ParentSpan is the span id of the hop (or origin root span) that
	// sent this message.
	ParentSpan uint64
	// Hop counts trace hops so far, 0 at the origin.
	Hop int
	// Origin is the peer whose runtime collects this trace's events.
	Origin int
	// SentUnixNano is the send time on the sender's clock; the receiver
	// derives queue/wire wait from it (clock skew applies across
	// machines, so treat cross-host waits as approximate).
	SentUnixNano int64
}

// Query is an Algorithm 4 cluster query in flight.
type Query struct {
	// ID pairs the eventual Result with the origin's pending reply; it
	// is unique per origin runtime.
	ID uint64
	// Origin is the peer whose runtime holds the pending reply.
	Origin int
	// K is the size constraint.
	K int
	// ClassIdx and ClassL are the snapped diameter class.
	ClassIdx int
	// ClassL is the snapped diameter value.
	ClassL float64
	// Prev is the peer the query was forwarded from (-1 at the start).
	Prev int
	// Hops counts forwards so far.
	Hops int
	// Path lists every peer visited, start first.
	Path []int
}

// NodeQuery is a single-node search in flight, with the incumbent best
// candidate riding along.
type NodeQuery struct {
	// ID pairs the eventual NodeResult with the origin's pending reply.
	ID uint64
	// Origin is the peer whose runtime holds the pending reply.
	Origin int
	// Set is the input host set.
	Set []int
	// L is the radius constraint.
	L float64
	// BestNode is the incumbent candidate (-1 initially).
	BestNode int
	// BestRadius is the incumbent's set radius (+Inf initially).
	BestRadius float64
	// Prev is the peer the search was forwarded from (-1 at the start).
	Prev int
	// Hops counts forwards so far.
	Hops int
}

// Result is the answer of a cluster query, routed back to its origin.
type Result struct {
	// ID is the Query.ID this answers.
	ID uint64
	// Cluster holds the selected host ids, nil when none was found.
	Cluster []int
	// Hops is how many times the query was forwarded.
	Hops int
	// Answered is the peer that produced the final answer.
	Answered int
	// Class is the diameter class the query was snapped to.
	Class float64
	// Path lists every peer the query visited.
	Path []int
}

// NodeResult is the answer of a node search, routed back to its origin.
type NodeResult struct {
	// ID is the NodeQuery.ID this answers.
	ID uint64
	// Node is the found host, -1 when none satisfies the constraint.
	Node int
	// Radius is the found host's set radius.
	Radius float64
	// Hops is how many times the search was forwarded.
	Hops int
	// Answered is the peer that produced the final answer.
	Answered int
}

// Sentinel errors shared by the transport implementations.
var (
	// ErrUnknownPeer reports a destination with no registered endpoint
	// (and, for TCP, no route).
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrClosed reports an operation on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrInboxFull reports a best-effort send dropped on a full inbox or
	// outbound queue.
	ErrInboxFull = errors.New("transport: inbox full")
	// ErrTimeout reports a blocking send that exceeded the send timeout.
	ErrTimeout = errors.New("transport: send timed out")
)

// Transport moves messages between peers. Implementations must be safe
// for concurrent use by many goroutines.
type Transport interface {
	// Register attaches a local peer endpoint and returns its inbound
	// message channel. Registering an already-registered id fails.
	Register(id int) (<-chan Message, error)
	// Unregister detaches a local peer endpoint (peer crash or
	// shutdown): senders blocked toward it are released with
	// ErrUnknownPeer. Unknown ids are a no-op.
	Unregister(id int) error
	// Send delivers m to peer m.To, blocking until the message is
	// accepted, the destination unregisters, or the transport closes.
	Send(m Message) error
	// TrySend attempts best-effort, non-blocking delivery of m to peer
	// m.To; a full inbox drops the message and returns ErrInboxFull.
	TrySend(m Message) error
	// Close shuts the transport down and releases its resources.
	// Close is idempotent.
	Close() error
}

// clone deep-copies a message, including payload slices, so a duplicated
// delivery never aliases mutable state with the original (in-process
// transports pass payload pointers by reference).
func (m Message) clone() Message {
	c := m
	c.Nodes = append([]int(nil), m.Nodes...)
	c.CRT = append([]int(nil), m.CRT...)
	if m.Query != nil {
		q := *m.Query
		q.Path = append([]int(nil), m.Query.Path...)
		c.Query = &q
	}
	if m.NodeQuery != nil {
		q := *m.NodeQuery
		q.Set = append([]int(nil), m.NodeQuery.Set...)
		c.NodeQuery = &q
	}
	if m.Result != nil {
		r := *m.Result
		r.Cluster = append([]int(nil), m.Result.Cluster...)
		r.Path = append([]int(nil), m.Result.Path...)
		c.Result = &r
	}
	if m.NodeResult != nil {
		r := *m.NodeResult
		c.NodeResult = &r
	}
	if m.Snapshot != nil {
		s := *m.Snapshot
		s.Data = append([]byte(nil), m.Snapshot.Data...)
		c.Snapshot = &s
	}
	if m.Trace != nil {
		tc := *m.Trace
		c.Trace = &tc
	}
	if m.Event != nil {
		ev := *m.Event
		c.Event = &ev
	}
	return c
}
