// Package protostate is a bwc-vet fixture for the wire-protocol state
// check: enum-switch exhaustiveness, wire-schema parity between Message
// and wireMessage, and clone completeness over reference fields.
package protostate

import "bwcluster/internal/telemetry"

type kind uint8

const (
	kindPing kind = iota + 1
	kindPong
	kindData
)

// describe misses kindData and has no default: a new kind would fall
// through silently.
func describe(k kind) string {
	switch k { // want `not exhaustive: missing kindData`
	case kindPing:
		return "ping"
	case kindPong:
		return "pong"
	}
	return "unknown"
}

// handle covers every constant: clean.
func handle(k kind) int {
	switch k {
	case kindPing, kindPong:
		return 1
	case kindData:
		return 2
	}
	return 0
}

// route keeps an explicit default: the remainder is handled by design.
func route(k kind) int {
	switch k {
	case kindPing:
		return 1
	default:
		return 0
	}
}

type payload struct{ Body []byte }

// TraceContext rides only on traced frames; parity exempts it.
type TraceContext struct{ ID uint64 }

// Message is the fixture's protocol envelope. Event, a telemetry type,
// rides only on traced frames too; parity exempts it.
type Message struct {
	Kind  kind
	From  int
	Data  *payload
	Acks  []int
	Trace *TraceContext
	Event *telemetry.SpanEvent
}

// wireMessage drops Acks: a payload field that would vanish on every
// lean frame.
type wireMessage struct { // want `missing non-trace Message field Acks`
	Kind kind
	From int
	Data *payload
}

// clone forgets the Data and Acks fields, so duplicated deliveries
// alias them.
func (m Message) clone() Message { // want `does not copy reference field`
	c := m
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

// keep the otherwise-unused lean schema referenced.
var _ = wireMessage{}
