package world

import "sync"

// UseTwin makes New give every world it builds the brute-force twin of the
// spatial layer (twin_test.go) until the returned function restores the
// production layer. Restoring also checks every twin's last lent neighbor
// slices and panics if a caller wrote to one. New reads the choice, so a
// test that calls it must not run in parallel with another that builds
// worlds.
func UseTwin() (restore func()) {
	prod := newSpace
	var mu sync.Mutex
	var lent []*lentSlices
	newSpace = func(w *World) space {
		t := newTwin(w)
		mu.Lock()
		lent = append(lent, t.lent)
		mu.Unlock()
		return t
	}
	return func() {
		newSpace = prod
		for _, l := range lent {
			l.check(0)
		}
	}
}

// PoisonArena makes New give every world it builds on the production spatial
// layer an arena that overwrites each reclaimed chunk with NoNode, until the
// returned function restores plain resets. A caller that reads a borrowed
// neighbor list after its epoch ended then reads NoNode, or another node's
// list, every time: its run diverges from the twin's. New reads the choice,
// as with UseTwin.
func PoisonArena() (restore func()) {
	prod := newSpace
	newSpace = func(w *World) space {
		s := prod(w).(*gridSpace)
		s.arena.poison = true
		return s
	}
	return func() { newSpace = prod }
}

// KinCap returns the capacity of the position table of a world on the
// production spatial layer.
func KinCap(w *World) int { return cap(w.space.(*gridSpace).kin) }
