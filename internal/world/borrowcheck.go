package world

import "fmt"

// The Neighbors/AliveNeighbors nil-dst contract hands callers a slice owned
// by the world's per-node cache: it must be read-only and must not be
// retained across epochs, because the cache rewrites it in place on the
// next recomputation. The contract used to be documentation-only; this file
// is the runtime guard. With checks enabled the world keeps a private copy
// of every slice it hands out and, immediately before rewriting a cache
// entry, compares the live slice against the copy. The world itself never
// writes between those two points, so any difference is a caller writing
// into borrowed memory — and the guard panics at the first recomputation
// after the violation, naming the node whose cache was corrupted.
//
// The guard is for tests (the conformance suite runs with it on); when off
// the cost is one nil check per cache *rebuild* — the per-query hot path is
// untouched and stays allocation-free.

// borrowShadow holds the private copies for one node's cache entry.
type borrowShadow struct {
	nb, wide, alive     []NodeID
	nbValid, aliveValid bool
}

// EnableBorrowChecks turns on the borrowed-slice guard, and with it a full
// scan of the path-search table at every ReturnSearch. Intended for tests;
// enabling mid-run is fine (existing hand-outs are unshadowed and only
// checked from their next recomputation on).
func (w *World) EnableBorrowChecks() {
	if w.borrowShadows == nil {
		w.borrowShadows = make([]borrowShadow, len(w.nodes))
	}
}

func (w *World) borrowShadow(id NodeID) *borrowShadow {
	// AddNode after enabling grows the shadow table lazily.
	for int(id) >= len(w.borrowShadows) {
		w.borrowShadows = append(w.borrowShadows, borrowShadow{})
	}
	return &w.borrowShadows[id]
}

func mismatch(live, shadow []NodeID) bool {
	if len(live) != len(shadow) {
		return true
	}
	for i := range live {
		if live[i] != shadow[i] {
			return true
		}
	}
	return false
}

// verifyBorrowedNeighbors runs before a rebuild rewrites the entry. The
// alive view may be nb itself, so it is verified here too and its shadow
// retired: after the rewrite it would read as a caller's mutation.
func (w *World) verifyBorrowedNeighbors(id NodeID, c *nodeCache) {
	s := w.borrowShadow(id)
	if s.nbValid && (mismatch(c.nb, s.nb) || mismatch(c.wide, s.wide)) {
		panic(fmt.Sprintf(
			"world: borrowed Neighbors slice for node %d was mutated by a caller (have %v, handed out %v): "+
				"nil-dst results are cache-owned and read-only; pass a non-nil dst for a private copy",
			id, c.nb, s.nb))
	}
	w.verifyBorrowedAlive(id, c)
	s.aliveValid = false
}

func (w *World) verifyBorrowedAlive(id NodeID, c *nodeCache) {
	s := w.borrowShadow(id)
	if !s.aliveValid {
		return
	}
	if mismatch(c.alive, s.alive) {
		panic(fmt.Sprintf(
			"world: borrowed AliveNeighbors slice for node %d was mutated by a caller (have %v, handed out %v): "+
				"nil-dst results are cache-owned and read-only; pass a non-nil dst for a private copy",
			id, c.alive, s.alive))
	}
}

func (w *World) snapshotBorrowedNeighbors(id NodeID, c *nodeCache) {
	s := w.borrowShadow(id)
	s.nb = append(s.nb[:0], c.nb...)
	s.wide = append(s.wide[:0], c.wide...)
	s.nbValid = true
}

func (w *World) snapshotBorrowedAlive(id NodeID, c *nodeCache) {
	s := w.borrowShadow(id)
	s.alive = append(s.alive[:0], c.alive...)
	s.aliveValid = true
}

// verifySearchTable checks the path-search table after a loan: when the
// visit list named every entry the search set, the table is all zero again.
func (w *World) verifySearchTable() {
	for id, v := range w.via {
		if v != 0 {
			panic(fmt.Sprintf("world: path-search table entry for node %d left set after a search "+
				"(predecessor %d): the visit list must name every entry the search sets", id, v-1))
		}
	}
}
