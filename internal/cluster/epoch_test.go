package cluster

import (
	"errors"
	"reflect"
	"testing"
)

// The index answers over a fixed host set. After a membership change
// (join/leave/fail) the forest's epoch moves, and a query against an
// index built at the old epoch must be REJECTED, not answered from
// tables describing hosts that no longer exist.
func TestFindAtRejectsStaleIndex(t *testing.T) {
	m := lineMetric(0, 1, 2, 10, 11)
	ix, err := NewIndexParallelAt(m, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Epoch(); got != 7 {
		t.Fatalf("Epoch() = %d, want 7", got)
	}

	// Matching epoch: identical to Find.
	want, err := ix.Find(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.FindAt(7, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FindAt(matching epoch) = %v, want %v", got, want)
	}

	// Stale epoch (membership moved on): rejected with ErrStaleIndex,
	// even though the table for k = 3 is already built.
	members, err := ix.FindAt(8, 3, 2)
	if err == nil {
		t.Fatalf("FindAt(stale epoch) answered %v, want error", members)
	}
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("FindAt(stale epoch) error = %v, want ErrStaleIndex", err)
	}
	// Older epochs are just as stale as newer ones.
	if _, err := ix.FindAt(6, 3, 2); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("FindAt(older epoch) error = %v, want ErrStaleIndex", err)
	}
}

func TestNewIndexParallelAtCarriesEpoch(t *testing.T) {
	m := lineMetric(0, 1, 2, 10, 11)
	ix, err := NewIndexParallelAt(m, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Epoch(); got != 3 {
		t.Fatalf("Epoch() = %d, want 3", got)
	}
	if _, err := ix.FindAt(3, 2, 2); err != nil {
		t.Fatalf("FindAt(matching epoch) error: %v", err)
	}
	if _, err := ix.FindAt(4, 2, 2); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("FindAt(stale epoch) error = %v, want ErrStaleIndex", err)
	}
	// Plain constructors leave the tag at zero.
	plain, err := NewIndex(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Epoch(); got != 0 {
		t.Fatalf("plain index Epoch() = %d, want 0", got)
	}
}
