package world

import (
	"cmp"
	"slices"
	"time"

	"refer/internal/geo"
)

// twin is the spatial layer by brute force: every query scans every node at
// the position its model gives for now, tests Dist <= range, and returns a
// fresh slice. It keeps no index, cache or position table, so a caller that
// mutates or retains a borrowed slice, or a gridSpace cache that goes stale,
// makes a run on gridSpace differ from the same run on the twin. The one
// rule the two share is the neighborhood order: indexGrid's cell key of the
// exact position, then NodeID.
type twin struct {
	w    *World
	keys *geo.Grid
}

func newTwin(w *World) *twin { return &twin{w: w, keys: indexGrid(w.cfg.Region)} }

func (t *twin) add(*Node) {}

func (t *twin) position(id NodeID) geo.Point {
	now := t.w.Sched.Now()
	return t.w.nodes[id].Mob.Leg(now).At(now)
}

func (t *twin) neighbors(from NodeID, alive bool) []NodeID {
	type member struct {
		key int
		id  NodeID
	}
	p, reach := t.position(from), t.w.nodes[from].Range
	var members []member
	for _, n := range t.w.nodes {
		if q := t.position(n.ID); n.ID != from && (!alive || n.Alive()) && p.Dist(q) <= min(reach, n.Range) {
			members = append(members, member{t.keys.CellKey(q), n.ID})
		}
	}
	slices.SortFunc(members, func(a, b member) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id)) })
	nb := make([]NodeID, len(members))
	for i, m := range members {
		nb[i] = m.id
	}
	return nb
}

func (t *twin) carrierSense(from NodeID, end time.Duration) {
	p, reach := t.position(from), t.w.nodes[from].Range
	for _, n := range t.w.nodes {
		if n.ID != from && p.Dist(t.position(n.ID)) <= reach {
			t.w.holdOff(n.ID, end)
		}
	}
}

func (t *twin) nearestActuator(from NodeID) NodeID {
	p := t.position(from)
	best, bestDist := NoNode, 0.0
	for _, n := range t.w.nodes {
		if n.Kind != Actuator || !n.Alive() {
			continue
		}
		if d := p.Dist(t.position(n.ID)); best == NoNode || d < bestDist {
			best, bestDist = n.ID, d
		}
	}
	return best
}
