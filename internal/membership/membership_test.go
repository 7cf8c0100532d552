package membership

import (
	"testing"
)

func testTracker(t *testing.T, suspect, dead uint64, cap int) *Tracker {
	t.Helper()
	tk, err := New(Config{SuspectAfterTicks: suspect, DeadAfterTicks: dead, EventCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SuspectAfterTicks: 10, DeadAfterTicks: 10}); err == nil {
		t.Error("dead == suspect should fail")
	}
	if _, err := New(Config{SuspectAfterTicks: 10, DeadAfterTicks: 5}); err == nil {
		t.Error("dead < suspect should fail")
	}
	if _, err := New(Config{EventCap: -1}); err == nil {
		t.Error("negative event cap should fail")
	}
	tk, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tk.cfg.SuspectAfterTicks != DefaultSuspectAfterTicks || tk.cfg.DeadAfterTicks != DefaultDeadAfterTicks {
		t.Errorf("defaults not applied: %+v", tk.cfg)
	}
}

func TestChurnLifecycleTransitions(t *testing.T) {
	tk := testTracker(t, 10, 30, 64)

	// Join three hosts: three epochs, three events.
	for i, h := range []int{0, 1, 5} {
		if err := tk.NoteJoin(h, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tk.Snapshot().Epoch; got != 3 {
		t.Fatalf("epoch after joins = %d, want 3", got)
	}
	if got := present(tk); got != 3 {
		t.Fatalf("alive = %d, want 3", got)
	}
	// Idempotent: rejoining a present host changes nothing.
	if err := tk.NoteJoin(1, 4); err != nil {
		t.Fatal(err)
	}
	if got := tk.Snapshot().Epoch; got != 3 {
		t.Fatalf("epoch after duplicate join = %d, want 3", got)
	}

	// Host 5 goes quiet: suspect at age >= 10 (no epoch move).
	dead := tk.Observe(20, []int{0, 1, 5}, []uint64{1, 2, 15}, nil)
	if len(dead) != 0 {
		t.Fatalf("suspect scan declared deaths: %v", dead)
	}
	if got := tk.Status(5); got != StatusSuspect {
		t.Fatalf("status(5) = %v, want suspect", got)
	}
	if got := tk.Snapshot().Epoch; got != 3 {
		t.Fatalf("suspicion moved the epoch to %d", got)
	}
	if got := present(tk); got != 3 {
		t.Fatalf("alive after suspicion = %d, want 3 (suspects are present)", got)
	}

	// Gossip comes back: recover.
	tk.Observe(25, []int{5}, []uint64{2}, nil)
	if got := tk.Status(5); got != StatusAlive {
		t.Fatalf("status(5) after recovery = %v, want alive", got)
	}

	// Quiet again, past the death threshold: suspect first, then dead.
	tk.Observe(40, []int{5}, []uint64{12}, nil)
	dead = tk.Observe(70, []int{5}, []uint64{42}, dead[:0])
	if len(dead) != 1 || dead[0] != 5 {
		t.Fatalf("dead = %v, want [5]", dead)
	}
	if got := tk.Status(5); got != StatusDead {
		t.Fatalf("status(5) = %v, want dead", got)
	}
	if got := tk.Snapshot().Epoch; got != 4 {
		t.Fatalf("epoch after death = %d, want 4", got)
	}
	if got := present(tk); got != 2 {
		t.Fatalf("alive after death = %d, want 2", got)
	}

	// Graceful leave moves the epoch; leaving twice fails.
	if err := tk.NoteLeave(1, 80); err != nil {
		t.Fatal(err)
	}
	if err := tk.NoteLeave(1, 81); err == nil {
		t.Error("double leave should fail")
	}
	if got := tk.Snapshot().Epoch; got != 5 {
		t.Fatalf("epoch after leave = %d, want 5", got)
	}

	// A dead host can rejoin (fresh join, new epoch).
	if err := tk.NoteJoin(5, 90); err != nil {
		t.Fatal(err)
	}
	if got, want := tk.Status(5), StatusAlive; got != want {
		t.Fatalf("status(5) after rejoin = %v, want %v", got, want)
	}
	if got := tk.Snapshot().Epoch; got != 6 {
		t.Fatalf("epoch after rejoin = %d, want 6", got)
	}

	// Event log: join x3, suspect, recover, suspect, fail, leave, join.
	events := tk.Events(nil)
	wantKinds := []EventKind{
		EventJoin, EventJoin, EventJoin, EventSuspect, EventRecover,
		EventSuspect, EventFail, EventLeave, EventJoin,
	}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantKinds), events)
	}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v (%+v)", i, ev.Kind, wantKinds[i], ev)
		}
	}
}

func TestChurnNoteFailBypassesSuspicion(t *testing.T) {
	tk := testTracker(t, 10, 30, 8)
	if err := tk.NoteFail(3, 0); err == nil {
		t.Error("failing an unknown host should error")
	}
	if err := tk.NoteJoin(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := tk.NoteFail(3, 1); err != nil {
		t.Fatal(err)
	}
	if got := tk.Status(3); got != StatusDead {
		t.Fatalf("status = %v, want dead", got)
	}
	if got := tk.Snapshot().Epoch; got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
	// Dead hosts are ignored by Observe: no resurrection by fresh age.
	tk.Observe(5, []int{3}, []uint64{0}, nil)
	if got := tk.Status(3); got != StatusDead {
		t.Fatalf("observe resurrected a dead host: %v", got)
	}
}

func TestChurnEventRingOverwritesOldest(t *testing.T) {
	tk := testTracker(t, 10, 30, 4)
	for h := 0; h < 7; h++ {
		if err := tk.NoteJoin(h, uint64(h)); err != nil {
			t.Fatal(err)
		}
	}
	events := tk.Events(nil)
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for i, ev := range events {
		if want := 3 + i; ev.Host != want {
			t.Fatalf("event %d host = %d, want %d (oldest overwritten first)", i, ev.Host, want)
		}
	}
	snap := tk.Snapshot()
	if snap.Alive != 7 || snap.Epoch != 7 || len(snap.Events) != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// The per-tick scan is a hot path: with caller-provided buffers of
// adequate capacity it must not allocate, transitions or not.
func TestChurnObserveDoesNotAllocate(t *testing.T) {
	tk := testTracker(t, 10, 30, 64)
	hosts := make([]int, 16)
	ages := make([]uint64, 16)
	for h := 0; h < 16; h++ {
		if err := tk.NoteJoin(h, 0); err != nil {
			t.Fatal(err)
		}
		hosts[h] = h
	}
	dead := make([]int, 0, 16)
	tick := uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		// Alternate quiet and fresh so suspect/recover transitions fire
		// inside the measured loop.
		for i := range ages {
			if tick%2 == 0 {
				ages[i] = 20
			} else {
				ages[i] = 0
			}
		}
		dead = tk.Observe(tick, hosts, ages, dead[:0])
		tick++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %v times per scan; the hot path must be allocation-free", allocs)
	}
}

func TestChurnSnapshotCounts(t *testing.T) {
	tk := testTracker(t, 10, 30, 16)
	for h := 0; h < 4; h++ {
		if err := tk.NoteJoin(h, 0); err != nil {
			t.Fatal(err)
		}
	}
	tk.Observe(15, []int{1}, []uint64{12}, nil) // 1 suspect
	if err := tk.NoteLeave(2, 16); err != nil {
		t.Fatal(err)
	}
	if err := tk.NoteFail(3, 17); err != nil {
		t.Fatal(err)
	}
	snap := tk.Snapshot()
	if snap.Alive != 1 || snap.Suspect != 1 || snap.Dead != 1 || snap.Left != 1 {
		t.Fatalf("snapshot counts = %+v", snap)
	}
	if len(snap.Hosts) != 4 {
		t.Fatalf("snapshot hosts = %v", snap.Hosts)
	}
}

// present counts the hosts the tracker holds present: alive or suspect.
func present(tk *Tracker) int {
	snap := tk.Snapshot()
	return snap.Alive + snap.Suspect
}
