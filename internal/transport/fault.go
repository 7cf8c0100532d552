package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bwcluster/internal/bwledger"
	"bwcluster/internal/telemetry"
)

// FaultConfig parameterizes deterministic fault injection. All
// probabilities are in [0, 1); the zero value injects nothing.
type FaultConfig struct {
	// Seed drives the entire fault schedule: two FaultTransports built
	// with equal configs produce identical Decision sequences.
	Seed int64
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Delay is the probability a delivery is deferred by a schedule-drawn
	// duration in (0, MaxDelay].
	Delay float64
	// MaxDelay bounds injected delays (non-positive: 2ms).
	MaxDelay time.Duration
	// Reorder is the probability a gossip message is held back and
	// delivered after the next message to the same destination (queries
	// are never held: gossip resends make holdback safe, a held query
	// would just stall).
	Reorder float64
	// GossipOnly restricts drop/duplicate/delay/reorder to the
	// best-effort kinds — periodic gossip and trace reports (whose loss
	// surfaces as explicit trace gaps); queries and results pass through
	// unfaulted. Partitions always apply to every kind — a partitioned
	// network cannot route queries either.
	GossipOnly bool
	// Partitions is the scheduled partition plan.
	Partitions []Partition
}

// Partition cuts an island of peers off from the rest of the network for
// a window of the transport's global send sequence. Expressing the
// window in send counts rather than wall time keeps the schedule
// deterministic: the runtime gossips every tick, so sends accumulate at
// a steady rate and the partition both starts and heals regardless of
// timing.
type Partition struct {
	// After is the global send index at which the partition activates.
	After int
	// Until is the send index at which it heals (exclusive).
	Until int
	// Island is the peer set cut off from everyone else.
	Island []int
}

// Decision is one slot of the fault schedule: what happens to the i-th
// faultable message. It is a pure function of (Seed, i).
type Decision struct {
	// Drop discards the message.
	Drop bool
	// Duplicate delivers the message twice.
	Duplicate bool
	// Delay defers delivery by this duration (0: deliver immediately).
	Delay time.Duration
	// Reorder holds a gossip message until the next message to the same
	// destination has passed.
	Reorder bool
}

// FaultTransport wraps an inner transport and injects faults from a
// seeded, reproducible schedule: drops, duplicates, delays, reorders and
// scheduled partitions. The *schedule* (which message suffers which
// fault) derives only from the seed and the message sequence; actual
// delayed deliveries use real timers, which is why this package is an
// I/O package under the determinism policy while the schedule itself
// stays seed-driven.
type FaultTransport struct {
	inner  Transport
	cfg    FaultConfig
	island map[int]bool
	flight flightRef

	mu       sync.Mutex
	rng      *rand.Rand       // guarded by mu
	schedule []Decision       // guarded by mu
	sends    int              // guarded by mu
	faulted  int              // guarded by mu
	held     map[int]*Message // guarded by mu
}

// NewFault wraps inner with deterministic fault injection.
func NewFault(inner Transport, cfg FaultConfig) (*FaultTransport, error) {
	if inner == nil {
		return nil, fmt.Errorf("transport: nil inner transport")
	}
	for name, p := range map[string]float64{
		"Drop": cfg.Drop, "Duplicate": cfg.Duplicate, "Delay": cfg.Delay, "Reorder": cfg.Reorder,
	} {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("transport: fault rate %s must be in [0,1), got %v", name, p)
		}
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	island := make(map[int]bool)
	for _, part := range cfg.Partitions {
		if part.After < 0 || part.Until <= part.After {
			return nil, fmt.Errorf("transport: partition window [%d,%d) is empty", part.After, part.Until)
		}
		if len(part.Island) == 0 {
			return nil, fmt.Errorf("transport: partition with empty island")
		}
		for _, id := range part.Island {
			island[id] = true
		}
	}
	return &FaultTransport{
		inner:  inner,
		cfg:    cfg,
		island: island,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		held:   make(map[int]*Message),
	}, nil
}

// DecisionAt returns the i-th slot of the fault schedule. The schedule
// is generated lazily but never changes: it is a pure function of the
// seed, which the determinism regression test asserts.
// Kept: test seam: tests read the seeded fault schedule.
func (t *FaultTransport) DecisionAt(i int) Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.decisionAtLocked(i)
}

// decisionAtLocked extends the cached schedule to cover slot i. Every
// slot consumes exactly five draws from the seeded stream, so slot i is
// independent of which messages happened to arrive before it was needed.
func (t *FaultTransport) decisionAtLocked(i int) Decision {
	for len(t.schedule) <= i {
		var d Decision
		d.Drop = t.rng.Float64() < t.cfg.Drop
		d.Duplicate = t.rng.Float64() < t.cfg.Duplicate
		delayed := t.rng.Float64() < t.cfg.Delay
		frac := t.rng.Float64()
		if delayed {
			d.Delay = time.Duration(frac*float64(t.cfg.MaxDelay)) + time.Microsecond
		}
		d.Reorder = t.rng.Float64() < t.cfg.Reorder
		t.schedule = append(t.schedule, d)
	}
	return t.schedule[i]
}

// Sends returns the number of messages offered to the transport so far
// (including dropped ones); partition windows are expressed against this
// counter.
func (t *FaultTransport) Sends() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sends
}

// partitionCut reports whether the seq-th send crosses an active
// partition boundary.
func (t *FaultTransport) partitionCut(seq, from, to int) bool {
	for _, part := range t.cfg.Partitions {
		if seq >= part.After && seq < part.Until && t.island[from] != t.island[to] {
			return true
		}
	}
	return false
}

// SetFlight attaches a flight recorder to the injector and, when the
// inner transport supports one, forwards it there too — one call wires
// the whole stack.
func (t *FaultTransport) SetFlight(r *telemetry.FlightRecorder) {
	t.flight.set(r)
	if fs, ok := t.inner.(flightSetter); ok {
		fs.SetFlight(r)
	}
}

// SetLedger forwards the bandwidth ledger to the inner transport, which
// accounts bytes at actual delivery — so injected drops and partitions
// never count, and duplicates count twice, exactly as they hit inboxes.
func (t *FaultTransport) SetLedger(l *bwledger.Ledger) {
	if ls, ok := t.inner.(ledgerSetter); ok {
		ls.SetLedger(l)
	}
}

// Register delegates to the inner transport.
func (t *FaultTransport) Register(id int) (<-chan Message, error) { return t.inner.Register(id) }

// Unregister delegates to the inner transport.
func (t *FaultTransport) Unregister(id int) error { return t.inner.Unregister(id) }

// Send delivers m through the fault schedule with the inner transport's
// blocking semantics.
func (t *FaultTransport) Send(m Message) error { return t.inject(m, t.inner.Send) }

// TrySend delivers m through the fault schedule with the inner
// transport's best-effort semantics.
func (t *FaultTransport) TrySend(m Message) error { return t.inject(m, t.inner.TrySend) }

// inject applies the next fault decision to m and delivers accordingly.
// A dropped or held message returns nil: from the sender's view it was
// accepted, exactly like real packet loss.
func (t *FaultTransport) inject(m Message, deliver func(Message) error) error {
	t.mu.Lock()
	seq := t.sends
	t.sends++
	cut := t.partitionCut(seq, m.From, m.To)
	var dec Decision
	if !cut && (!t.cfg.GossipOnly || m.Kind.BestEffort()) {
		dec = t.decisionAtLocked(t.faulted)
		t.faulted++
	}
	hold := false
	var flush *Message
	if !cut && !dec.Drop {
		if dec.Reorder && m.Kind.Gossip() && t.held[m.To] == nil {
			mc := m.clone()
			t.held[m.To] = &mc
			hold = true
		} else if h := t.held[m.To]; h != nil {
			flush = h
			delete(t.held, m.To)
		}
	}
	t.mu.Unlock()

	switch {
	case cut:
		mFaults.Inc(faultPartition)
		t.flight.get().Record(flightFault, m.From, m.To, faultPartition+" "+m.Kind.String())
		return nil
	case dec.Drop:
		mFaults.Inc(faultDrop)
		t.flight.get().Record(flightFault, m.From, m.To, faultDrop+" "+m.Kind.String())
		return nil
	case hold:
		mFaults.Inc(faultReorder)
		t.flight.get().Record(flightFault, m.From, m.To, faultReorder+" "+m.Kind.String())
		return nil
	}
	var err error
	if dec.Delay > 0 {
		mFaults.Inc(faultDelay)
		t.flight.get().Record(flightFault, m.From, m.To, faultDelay+" "+m.Kind.String())
		dm := m.clone()
		time.AfterFunc(dec.Delay, func() { _ = deliver(dm) })
	} else {
		err = deliver(m)
	}
	if dec.Duplicate {
		mFaults.Inc(faultDuplicate)
		t.flight.get().Record(flightFault, m.From, m.To, faultDuplicate+" "+m.Kind.String())
		_ = deliver(m.clone())
	}
	if flush != nil {
		// The held message was gossip; deliver it best-effort after the
		// message that overtook it.
		_ = t.inner.TrySend(*flush)
	}
	return err
}

// Close flushes any held messages and closes the inner transport.
func (t *FaultTransport) Close() error {
	t.mu.Lock()
	var rest []*Message
	for _, h := range t.held {
		rest = append(rest, h)
	}
	t.held = make(map[int]*Message)
	t.mu.Unlock()
	for _, h := range rest {
		_ = t.inner.TrySend(*h)
	}
	return t.inner.Close()
}
