package core

import (
	"refer/internal/energy"
	"refer/internal/kautz"
	"refer/internal/world"
)

// lowBatteryFraction is the battery threshold below which a Kautz sensor
// hands its role to a candidate (Section III-B-4: "its own battery power is
// below a threshold").
const lowBatteryFraction = 0.15

// scheduleMaintenance starts the periodic awake/wait/sleep maintenance tick.
func (s *System) scheduleMaintenance() {
	var tick func()
	tick = func() {
		if !s.maintenanceOn {
			return
		}
		s.maintainOnce()
		if _, err := s.w.Sched.After(s.cfg.ProbeInterval, tick); err != nil {
			// Scheduling after "now" can only fail on a programming error.
			panic(err)
		}
	}
	s.maintenanceOn = true
	if _, err := s.w.Sched.After(s.cfg.ProbeInterval, tick); err != nil {
		panic(err)
	}
}

// StopMaintenance halts the periodic maintenance tick (used by callers that
// drain the event queue to completion).
func (s *System) StopMaintenance() { s.maintenanceOn = false }

// MaintainOnce runs one maintenance round synchronously — the hook the
// benchmark's core.maintain_round_ns / core.maintain_round_allocs probes and
// the scale tests drive directly (the scheduled tick calls the same routine
// every ProbeInterval).
func (s *System) MaintainOnce() { s.maintainOnce() }

// maintainOnce performs one maintenance round: refresh cell membership
// under mobility, then every cell checks its Kautz sensors and replaces
// degraded ones with wait-state candidates.
func (s *System) maintainOnce() {
	s.refreshMembership()
	for _, c := range s.cells {
		if c.retired {
			continue // dissolved by a recovery merge; nothing to maintain
		}
		// One sleeping sensor per cell wakes and probes per round — the
		// cheap keepalive that lets candidates learn the overlay around
		// them (Section III-B-4).
		if prober := s.pickProber(c); prober != world.NoNode {
			s.w.Broadcast(prober, energy.Communication)
		}
		// Deterministic KID order: the graph's node list, which every
		// embedded cell holds in full.
		for _, kid := range s.kids {
			id, ok := c.NodeByKID[kid]
			if !ok {
				continue
			}
			if c.IsActuatorKID(kid) {
				continue // corners are actuators; sensors cannot replace them
			}
			if !s.degraded(c, id) {
				delete(s.degradedAt, id)
				continue
			}
			// Two-phase replacement: detection takes a probe round (signal
			// strength / battery reports are only observed at probe time),
			// so a node degraded in this round is replaced in the next.
			// Until then the Theorem 3.8 failover carries the traffic.
			since, seen := s.degradedAt[id]
			if !seen {
				s.degradedAt[id] = s.w.Now()
				continue
			}
			if s.w.Now()-since < s.cfg.ProbeInterval {
				continue
			}
			delete(s.degradedAt, id)
			s.replace(c, kid, id)
		}
	}
}

// refreshMembership re-homes plain sensors to the cell whose triangle they
// currently occupy: mobility carries sleep-state sensors across cells, and
// the candidate pools must track that. Overlay members keep their cell
// until replaced.
//
// Cell ownership is a pure function of position (triangles are fixed at
// build time), so the refresh is incremental two ways: a fully static world
// (the world's speed bound is zero) whose every sensor has been homed skips
// the loop outright, and a sensor whose position equals the one it was last
// homed at skips its lookup. Both skips are exact: recomputation could not
// change the answer.
func (s *System) refreshMembership() {
	if s.w.MaxSpeed() == 0 && s.homedLen == s.w.Len() {
		return
	}
	for _, n := range s.w.Nodes() {
		if n.Kind != world.Sensor {
			continue
		}
		cur := s.sensorCell[n.ID]
		if cur != nil {
			if _, overlay := cur.kidOfNode[n.ID]; overlay {
				continue
			}
		}
		p := s.w.Position(n.ID)
		if int(n.ID) < len(s.homeValid) && s.homeValid[n.ID] && s.homePos[n.ID] == p {
			continue
		}
		s.notePosition(n.ID, p)
		owner := s.homeCell(p)
		if owner == cur {
			continue
		}
		s.stats.Rehomes++
		if cur != nil {
			delete(cur.members, n.ID)
			delete(s.sensorCell, n.ID)
		}
		if owner != nil {
			owner.members[n.ID] = true
			s.sensorCell[n.ID] = owner
		}
	}
	s.homedLen = s.w.Len()
}

// pickProber returns an alive sleep-state sensor of the cell (round-robin
// by node ID through the world RNG for determinism).
func (s *System) pickProber(c *Cell) world.NodeID {
	pool := s.candidatePool(c)
	if len(pool) == 0 {
		return world.NoNode
	}
	return pool[s.w.Rand().Intn(len(pool))]
}

// degraded reports whether a Kautz sensor should hand over its role: dead,
// battery below threshold, or drifted out of its cell (mobility).
func (s *System) degraded(c *Cell, id world.NodeID) bool {
	n := s.w.Node(id)
	if !n.Alive() {
		return true
	}
	if n.Meter.Fraction() < lowBatteryFraction {
		return true
	}
	return !c.contains(s.w.Position(id), cellMargin)
}

// replace hands a KID from old to the best candidate. The candidate must be
// radio-connected to as many of the KID's overlay partners as possible;
// battery breaks ties (the paper selects candidates that "can build
// connections with the neighboring Kautz nodes").
func (s *System) replace(c *Cell, kid kautz.ID, old world.NodeID) {
	partners := s.overlayPartners(c, kid)
	best := world.NoNode
	bestConn, bestScore := -1, -1.0
	for _, cand := range s.candidatePool(c) {
		conn := 0
		p := s.w.Position(cand)
		for _, partner := range partners {
			if p.Dist(s.w.Position(partner)) <= s.w.LinkRange(cand, partner) {
				conn++
			}
		}
		score := s.w.Node(cand).Meter.Fraction()
		if conn > bestConn || (conn == bestConn && score > bestScore) {
			best, bestConn, bestScore = cand, conn, score
		}
	}
	if best == world.NoNode || bestConn < 1 {
		// No viable candidate this round; the KID keeps its (degraded)
		// holder and routing works around it via Theorem 3.8 failover.
		return
	}
	// Protocol cost: the candidate's probe was already paid; the handover
	// costs a notification from the old node (if it is still alive) or
	// from a partner that detected the failure.
	notifier := old
	if !s.w.Node(old).Alive() {
		notifier = partners[0]
	}
	s.w.Send(notifier, best, energy.Communication, nil)

	delete(c.kidOfNode, old)
	c.members[old] = true // the demoted node returns to the sleep pool
	delete(c.members, best)
	c.NodeByKID[kid] = best
	c.kidOfNode[best] = kid
	// Keep the member→cell map in step: sensors hold at most one KID, so the
	// demoted node leaves the map and its successor takes its place.
	delete(s.memberCell, old)
	s.memberCell[best] = c
	s.stats.Replacements++
}

// overlayPartners returns the nodes currently holding the KID's overlay
// neighbors (successors and predecessors in the Kautz graph).
func (s *System) overlayPartners(c *Cell, kid kautz.ID) []world.NodeID {
	var out []world.NodeID
	seen := make(map[world.NodeID]bool, 2*s.cfg.Degree)
	add := func(k kautz.ID) {
		if id, ok := c.NodeByKID[k]; ok && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, k := range s.graph.Successors(kid) {
		add(k)
	}
	for _, k := range s.graph.Predecessors(kid) {
		add(k)
	}
	return out
}
