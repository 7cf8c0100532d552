package predtree

import (
	"fmt"
	"strings"
)

// LabelEntry is one step of a distance label: anchor host Host, whose
// inner node t_Host sits at distance Offset from the previous anchor
// (along that anchor's pendant edge) and whose leaf hangs Pendant below
// t_Host.
type LabelEntry struct {
	Host    int
	Offset  float64
	Pendant float64
}

// Label is a host's distance label: the anchor chain from the root down to
// the host, annotated with the geometry needed to recover tree distances.
// It is the decentralized equivalent of network coordinates — two hosts
// can compute their predicted distance from their labels alone, without
// access to the full prediction tree.
type Label struct {
	entries []LabelEntry
}

// Host returns the host this label belongs to, or -1 for an empty label.
func (l Label) Host() int {
	if len(l.entries) == 0 {
		return -1
	}
	return l.entries[len(l.entries)-1].Host
}

// Len returns the anchor-chain length (including the root and the host).
func (l Label) Len() int { return len(l.entries) }

// Entries returns a copy of the label's entries, root first.
// Kept: ROADMAP items 12(a) and 14 give labels callers.
func (l Label) Entries() []LabelEntry {
	out := make([]LabelEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// String renders the label in the paper's arrow notation.
func (l Label) String() string {
	var b strings.Builder
	for i, e := range l.entries {
		if i == 0 {
			fmt.Fprintf(&b, "%d", e.Host)
			continue
		}
		fmt.Fprintf(&b, " -%.4g-> t%d -%.4g-> %d", e.Offset, e.Host, e.Pendant, e.Host)
	}
	return b.String()
}

// Label returns host h's distance label. It fails for hosts not in the
// tree.
func (t *Tree) Label(h int) (Label, error) {
	if !t.Contains(h) {
		return Label{}, fmt.Errorf("predtree: host %d not in tree", h)
	}
	var chain []LabelEntry
	for cur := h; cur >= 0; cur = int(t.anchorParent[cur]) {
		chain = append(chain, LabelEntry{Host: cur, Offset: t.offset[cur], Pendant: t.pendant[cur]})
	}
	// Reverse to root-first order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return Label{entries: chain}, nil
}

// LabelDist computes the predicted tree distance between the two labelled
// hosts using only the labels. It matches Tree.Dist exactly for labels
// produced by the same tree.
func LabelDist(a, b Label) (float64, error) {
	if len(a.entries) == 0 || len(b.entries) == 0 {
		return 0, fmt.Errorf("predtree: cannot compute distance with an empty label")
	}
	if a.entries[0].Host != b.entries[0].Host {
		return 0, fmt.Errorf("predtree: labels have different roots (%d vs %d)",
			a.entries[0].Host, b.entries[0].Host)
	}
	if a.Host() == b.Host() {
		return 0, nil
	}
	// Longest common anchor-chain prefix.
	c := 0
	for c < len(a.entries) && c < len(b.entries) && a.entries[c].Host == b.entries[c].Host {
		c++
	}
	switch {
	case c == len(a.entries):
		// a's host is an anchor ancestor of b's: climb from b's divergence
		// point, which sits Offset away from a's host.
		return b.entries[c].Offset + tailDist(b.entries, c), nil
	case c == len(b.entries):
		return a.entries[c].Offset + tailDist(a.entries, c), nil
	default:
		// Both diverge below the common anchor h_{c-1}: their inner nodes
		// lie on h_{c-1}'s pendant segment at the recorded offsets.
		gap := a.entries[c].Offset - b.entries[c].Offset
		if gap < 0 {
			gap = -gap
		}
		return gap + tailDist(a.entries, c) + tailDist(b.entries, c), nil
	}
}

// tailDist returns the distance from inner node t_{entries[j].Host} down
// to the labelled leaf.
func tailDist(entries []LabelEntry, j int) float64 {
	d := 0.0
	for i := j; i < len(entries); i++ {
		d += entries[i].Pendant
		if i+1 < len(entries) {
			d -= entries[i+1].Offset
		}
	}
	return d
}
