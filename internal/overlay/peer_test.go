package overlay

import (
	"slices"
	"testing"
)

func TestInsertSorted(t *testing.T) {
	got := insertSorted([]int{1, 3, 5}, 4)
	want := []int{1, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := insertSorted([]int{1, 3}, 3); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("duplicate insert: %v", got)
	}
	if got := insertSorted(nil, 2); !slices.Equal(got, []int{2}) {
		t.Errorf("empty insert: %v", got)
	}
}

// The splice rule links every survivor of a departed host to the
// lowest-id survivor, and the hub back to each of them.
func TestPeerSplice(t *testing.T) {
	survivors := []int{2, 5, 7}
	hub := NewPeer(2, []int{1, 3})
	if got := hub.Splice(3, survivors); !slices.Equal(got, []int{5, 7}) {
		t.Errorf("hub gained %v, want [5 7]", got)
	}
	if got := hub.Neighbors(); !slices.Equal(got, []int{1, 5, 7}) {
		t.Errorf("hub neighbors %v, want [1 5 7]", got)
	}
	leaf := NewPeer(7, []int{9, 3})
	if got := leaf.Splice(3, survivors); !slices.Equal(got, []int{2}) {
		t.Errorf("survivor gained %v, want [2]", got)
	}
	if got := leaf.Neighbors(); !slices.Equal(got, []int{2, 9}) {
		t.Errorf("survivor neighbors %v, want [2 9]", got)
	}
	if got := NewPeer(4, []int{3}).Splice(3, nil); len(got) != 0 {
		t.Errorf("no survivors: gained %v", got)
	}
}
