package overlay

import "fmt"

// RemoveHost handles a peer's failure or departure. The overlay heals by
// splicing: the departed host's remaining neighbors are connected to its
// lowest-id neighbor, which keeps the overlay a tree (the paper's
// protocol needs acyclicity for query routing). All aggregation state is
// reset — superseded entries cannot be repaired in place because every
// peer's view may transitively contain the dead host — and the caller
// re-runs Converge to rebuild it; predictions for the remaining pairs are
// unaffected (their embedding does not involve the departed leaf).
//
// Note Refresh re-reads the substrate and therefore resurrects removed
// hosts; removal is an overlay-level operation for failure scenarios.
func (nw *Network) RemoveHost(h int) error {
	p, ok := nw.peers[h]
	if !ok {
		return fmt.Errorf("overlay: unknown host %d", h)
	}
	if len(nw.peers) == 1 {
		return fmt.Errorf("overlay: cannot remove the last host")
	}
	delete(nw.peers, h)

	// Splice the survivors around the hole.
	var survivors []int
	for _, nb := range p.neighbors {
		if _, alive := nw.peers[nb]; alive {
			survivors = append(survivors, nb)
		}
	}
	for _, nb := range survivors {
		nw.peers[nb].Splice(h, survivors)
	}

	// Drop the host from the roster and reset aggregation state.
	hosts := nw.hosts[:0]
	for _, hh := range nw.hosts {
		if hh != h {
			hosts = append(hosts, hh)
		}
	}
	nw.hosts = hosts
	for _, q := range nw.peers {
		q.Reset()
	}
	return nil
}
