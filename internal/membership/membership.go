// Package membership turns gossip-age health signals into a churn-native
// liveness protocol: a Tracker classifies every known host as alive,
// suspect, dead, or departed from periodic age observations, emits a
// bounded log of join/suspect/recover/fail/leave events, and counts
// membership epochs — the generation tag the clustering index uses to
// reject stale answers (cluster.Index.FindAt).
//
// The tracker is clock-agnostic: every entry point takes the caller's
// logical time (the runtime's monitor tick), so tests drive transitions
// with synthetic ticks and never sleep, matching the repo's determinism
// policy. Observe — the per-tick scan — is a hot path under bwc-vet's
// arena-hygiene rules: it runs every monitor tick for every observed
// host, so it works entirely in caller-provided buffers and the
// preallocated event ring, and must not allocate.
package membership

import (
	"fmt"
	"sync"
)

// Status is a host's liveness classification.
type Status uint8

const (
	// StatusUnknown: never joined.
	StatusUnknown Status = iota
	// StatusAlive: joined and gossiping freshly.
	StatusAlive
	// StatusSuspect: gossip age crossed SuspectAfterTicks; the host may
	// be partitioned or dead, but the membership has not moved yet.
	StatusSuspect
	// StatusDead: gossip age crossed DeadAfterTicks while suspect; the
	// host is declared failed and the membership epoch moves.
	StatusDead
	// StatusLeft: departed gracefully (NoteLeave).
	StatusLeft
)

// String returns the lowercase wire name served by /v1/membership.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	case StatusLeft:
		return "left"
	default:
		return "unknown"
	}
}

// EventKind labels one membership transition.
type EventKind uint8

const (
	// EventJoin: a host entered the membership.
	EventJoin EventKind = iota
	// EventSuspect: a host's gossip went stale.
	EventSuspect
	// EventRecover: a suspect host's gossip came back (partition healed).
	EventRecover
	// EventFail: a suspect host was declared dead.
	EventFail
	// EventLeave: a host departed gracefully.
	EventLeave
)

// String returns the lowercase wire name.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventSuspect:
		return "suspect"
	case EventRecover:
		return "recover"
	case EventFail:
		return "fail"
	case EventLeave:
		return "leave"
	default:
		return "unknown"
	}
}

// MarshalJSON serves event kinds by wire name, matching HostState's
// string statuses on /v1/membership.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one membership transition, stamped with the logical tick it
// happened at and the membership epoch after it (suspect/recover do not
// move the epoch: the membership itself has not changed).
type Event struct {
	Kind  EventKind `json:"kind"`
	Host  int       `json:"host"`
	Tick  uint64    `json:"tick"`
	Epoch uint64    `json:"epoch"`
}

// Config parameterizes the liveness thresholds, in monitor ticks.
type Config struct {
	// SuspectAfterTicks is the gossip age at which an alive host turns
	// suspect (0: DefaultSuspectAfterTicks).
	SuspectAfterTicks uint64
	// DeadAfterTicks is the gossip age at which a suspect host is
	// declared dead (0: DefaultDeadAfterTicks). Must exceed
	// SuspectAfterTicks: death always passes through suspicion.
	DeadAfterTicks uint64
	// EventCap bounds the event ring (0: DefaultEventCap). The ring is
	// preallocated; older events are overwritten.
	EventCap int
}

// Defaults, in monitor ticks (the monitor ticks at the gossip rate, so
// these are multiples of the gossip period).
const (
	DefaultSuspectAfterTicks = 250
	DefaultDeadAfterTicks    = 1000
	DefaultEventCap          = 256
)

// Tracker is the liveness state machine. Safe for concurrent use; the
// per-tick Observe path allocates nothing (the event ring is
// preallocated, results go into caller buffers).
type Tracker struct {
	cfg Config

	mu     sync.Mutex
	status []Status // dense, host-indexed; guarded by mu
	epoch  uint64   // membership generation; guarded by mu
	events []Event  // preallocated ring; guarded by mu
	evHead int      // ring index of the oldest event; guarded by mu
	evLen  int      // ring population; guarded by mu
}

// New builds a tracker. Zero thresholds take the package defaults;
// explicit thresholds must satisfy 0 < SuspectAfterTicks <
// DeadAfterTicks.
func New(cfg Config) (*Tracker, error) {
	if cfg.SuspectAfterTicks == 0 {
		cfg.SuspectAfterTicks = DefaultSuspectAfterTicks
	}
	if cfg.DeadAfterTicks == 0 {
		cfg.DeadAfterTicks = DefaultDeadAfterTicks
	}
	if cfg.DeadAfterTicks <= cfg.SuspectAfterTicks {
		return nil, fmt.Errorf("membership: DeadAfterTicks %d must exceed SuspectAfterTicks %d",
			cfg.DeadAfterTicks, cfg.SuspectAfterTicks)
	}
	if cfg.EventCap == 0 {
		cfg.EventCap = DefaultEventCap
	}
	if cfg.EventCap < 1 {
		return nil, fmt.Errorf("membership: EventCap must be positive, got %d", cfg.EventCap)
	}
	return &Tracker{cfg: cfg, events: make([]Event, cfg.EventCap)}, nil
}

// recordLocked appends an event to the ring, overwriting the oldest when
// full. Caller holds mu. Never allocates: the ring is preallocated.
func (tk *Tracker) recordLocked(kind EventKind, h int, now uint64) {
	slot := (tk.evHead + tk.evLen) % len(tk.events)
	tk.events[slot] = Event{Kind: kind, Host: h, Tick: now, Epoch: tk.epoch}
	if tk.evLen < len(tk.events) {
		tk.evLen++
	} else {
		tk.evHead = (tk.evHead + 1) % len(tk.events)
	}
}

// ensureLocked grows the dense status table to cover host h. Growth
// happens on joins only — never on the Observe hot path.
func (tk *Tracker) ensureLocked(h int) {
	if h < len(tk.status) {
		return
	}
	grown := make([]Status, h+1)
	copy(grown, tk.status)
	tk.status = grown
}

// NoteJoin admits host h at logical time now, moving the epoch. Joining
// an already-present (alive or suspect) host is a no-op; rejoining after
// death or departure is a fresh join.
func (tk *Tracker) NoteJoin(h int, now uint64) error {
	if h < 0 {
		return fmt.Errorf("membership: negative host %d", h)
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	tk.ensureLocked(h)
	if s := tk.status[h]; s == StatusAlive || s == StatusSuspect {
		return nil
	}
	tk.status[h] = StatusAlive
	tk.epoch++
	tk.recordLocked(EventJoin, h, now)
	return nil
}

// NoteLeave departs host h gracefully at logical time now, moving the
// epoch. Only present (alive or suspect) hosts can leave.
func (tk *Tracker) NoteLeave(h int, now uint64) error {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if h < 0 || h >= len(tk.status) {
		return fmt.Errorf("membership: host %d is not a member", h)
	}
	if s := tk.status[h]; s != StatusAlive && s != StatusSuspect {
		return fmt.Errorf("membership: host %d is %s, cannot leave", h, s)
	}
	tk.status[h] = StatusLeft
	tk.epoch++
	tk.recordLocked(EventLeave, h, now)
	return nil
}

// NoteFail declares host h failed immediately (explicit crash injection,
// bypassing the suspicion ladder), moving the epoch. Only present hosts
// can fail.
func (tk *Tracker) NoteFail(h int, now uint64) error {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if h < 0 || h >= len(tk.status) {
		return fmt.Errorf("membership: host %d is not a member", h)
	}
	if s := tk.status[h]; s != StatusAlive && s != StatusSuspect {
		return fmt.Errorf("membership: host %d is %s, cannot fail", h, s)
	}
	tk.status[h] = StatusDead
	tk.epoch++
	tk.recordLocked(EventFail, h, now)
	return nil
}

// Observe feeds one scan of gossip-age observations at logical time now:
// hosts[i] was last heard from ages[i] ticks ago (the minimum over all
// observers). Transitions: alive hosts whose age crosses
// SuspectAfterTicks turn suspect; suspect hosts whose gossip freshens
// recover; suspect hosts whose age crosses DeadAfterTicks are declared
// dead, moving the epoch. Hosts the tracker does not know (never joined,
// already dead or departed) are ignored — their removal is someone
// else's transition.
//
// The freshly dead hosts are appended to dead (pass a reused buffer with
// adequate capacity to keep the call allocation-free) and returned so
// the caller can drive repair — evicting them from the runtime and the
// prediction trees.
//
//bwcvet:hotpath per-tick scan; allocation-free by contract
func (tk *Tracker) Observe(now uint64, hosts []int, ages []uint64, dead []int) []int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	for i, h := range hosts {
		if h < 0 || h >= len(tk.status) {
			continue
		}
		age := ages[i]
		switch tk.status[h] {
		case StatusAlive:
			if age >= tk.cfg.SuspectAfterTicks {
				tk.status[h] = StatusSuspect
				tk.recordLocked(EventSuspect, h, now)
			}
		case StatusSuspect:
			if age < tk.cfg.SuspectAfterTicks {
				tk.status[h] = StatusAlive
				tk.recordLocked(EventRecover, h, now)
			} else if age >= tk.cfg.DeadAfterTicks {
				tk.status[h] = StatusDead
				tk.epoch++
				tk.recordLocked(EventFail, h, now)
				dead = append(dead, h)
			}
		}
	}
	return dead
}

// Status reports host h's classification.
// Kept: test seam: tests read one host's classification.
func (tk *Tracker) Status(h int) Status {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if h < 0 || h >= len(tk.status) {
		return StatusUnknown
	}
	return tk.status[h]
}

// Events appends the ring's events, oldest first, to buf and returns it.
// Kept: test seam: tests read the event ring.
func (tk *Tracker) Events(buf []Event) []Event {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	for i := 0; i < tk.evLen; i++ {
		buf = append(buf, tk.events[(tk.evHead+i)%len(tk.events)])
	}
	return buf
}

// HostState is one host's classification in a Snapshot.
type HostState struct {
	Host   int    `json:"host"`
	Status string `json:"status"`
}

// Snapshot is a point-in-time summary of the membership, served by
// bwc-serve's /v1/membership.
type Snapshot struct {
	Epoch   uint64      `json:"epoch"`
	Alive   int         `json:"alive"`
	Suspect int         `json:"suspect"`
	Dead    int         `json:"dead"`
	Left    int         `json:"left"`
	Hosts   []HostState `json:"hosts"`
	Events  []Event     `json:"events"`
}

// Snapshot summarizes the tracker for serving. It allocates; not a hot
// path.
func (tk *Tracker) Snapshot() Snapshot {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	snap := Snapshot{Epoch: tk.epoch}
	for h, s := range tk.status {
		switch s {
		case StatusAlive:
			snap.Alive++
		case StatusSuspect:
			snap.Suspect++
		case StatusDead:
			snap.Dead++
		case StatusLeft:
			snap.Left++
		case StatusUnknown:
			continue
		}
		snap.Hosts = append(snap.Hosts, HostState{Host: h, Status: s.String()})
	}
	snap.Events = make([]Event, 0, tk.evLen)
	for i := 0; i < tk.evLen; i++ {
		snap.Events = append(snap.Events, tk.events[(tk.evHead+i)%len(tk.events)])
	}
	return snap
}
