package world

import (
	"fmt"
	"slices"
	"time"

	"refer/internal/geo"
)

// twin is the spatial layer by brute force: every query scans every node in
// NodeID order at the position its model gives for now, tests Dist <= range,
// and returns a fresh slice. It keeps no index, cache or position table and
// shares no rule with gridSpace beyond the space contract, so a gridSpace
// cache that goes stale makes a run on gridSpace differ from the same run on
// the twin. A caller that writes to a borrowed slice is caught by lent.
type twin struct {
	w    *World
	lent *lentSlices
}

func newTwin(w *World) *twin { return &twin{w: w, lent: new(lentSlices)} }

// lentSlices holds the neighbor slices a twin lent at one virtual time, each
// with a private copy. A caller may read a borrowed slice until the clock
// moves on and may never write to it. The next query checks the slices lent
// since the previous one; the first query at a later time, and the end of a
// differential run (UseTwin), check every slice lent at the earlier time.
// Each slice is checked a bounded number of times, so the guard stays linear
// even when a system builds its topology in thousands of queries at time 0.
type lentSlices struct {
	at             time.Duration
	slices, copies [][]NodeID
	unchecked      int // slices[unchecked:] were lent since the last query
}

// check panics if a slice lent at or after slices[from] no longer equals its
// copy.
func (l *lentSlices) check(from int) {
	for i := from; i < len(l.slices); i++ {
		if !slices.Equal(l.slices[i], l.copies[i]) {
			panic(fmt.Sprintf("world: a borrowed neighbor slice was written to: lent %v, now %v", l.copies[i], l.slices[i]))
		}
	}
}

// query runs the lent-slice checks due at a query.
func (t *twin) query() {
	l := t.lent
	if now := t.w.Sched.Now(); now != l.at {
		l.check(0)
		l.at, l.slices, l.copies = now, l.slices[:0], l.copies[:0]
	} else {
		l.check(l.unchecked)
	}
	l.unchecked = len(l.slices)
}

func (t *twin) grow(int) {}

func (t *twin) add(*Node) {}

func (t *twin) position(id NodeID) geo.Point {
	t.query()
	return t.pos(id)
}

func (t *twin) pos(id NodeID) geo.Point {
	now := t.w.Sched.Now()
	return t.w.nodes[id].Mob.Leg(now).At(now)
}

func (t *twin) neighbors(from NodeID, alive bool) []NodeID {
	t.query()
	p, reach := t.pos(from), t.w.nodes[from].Range
	var nb []NodeID
	for _, n := range t.w.nodes {
		if n.ID != from && (!alive || n.Alive()) && p.Dist(t.pos(n.ID)) <= min(reach, n.Range) {
			nb = append(nb, n.ID)
		}
	}
	t.lent.slices = append(t.lent.slices, nb)
	t.lent.copies = append(t.lent.copies, slices.Clone(nb))
	return nb
}

func (t *twin) carrierSense(from NodeID, end time.Duration) {
	t.query()
	p, reach := t.pos(from), t.w.nodes[from].Range
	for _, n := range t.w.nodes {
		if n.ID != from && p.Dist(t.pos(n.ID)) <= reach {
			t.w.holdOff(n.ID, end)
		}
	}
}

func (t *twin) nearestActuator(from NodeID) NodeID {
	t.query()
	p := t.pos(from)
	best, bestDist := NoNode, 0.0
	for _, n := range t.w.nodes {
		if n.Kind != Actuator || !n.Alive() {
			continue
		}
		if d := p.Dist(t.pos(n.ID)); best == NoNode || d < bestDist {
			best, bestDist = n.ID, d
		}
	}
	return best
}
