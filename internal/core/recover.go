package core

import (
	"time"

	"refer/internal/energy"
	"refer/internal/recovery"
	"refer/internal/world"
)

// This file implements recovery.Repairer for REFER: the self-healing
// protocols that repair permanent actuator failures (DESIGN.md
// "Self-healing actuator recovery"). Theorem 3.8 failover and topology maintenance tolerate
// sensor churn, but a dead cell *corner* is structural damage neither can
// touch — sensors cannot replace actuators. Three escalating repairs:
//
//  1. Corner re-election: promote the best surviving actuator to the vacant
//     corner slot, rebinding the corner's KID. The cell geometry (triangle,
//     centroid, CAN coordinate) stays fixed — only the KID's holder changes,
//     exactly like a maintenance replacement at the actuator tier.
//  2. Cell merge: with no eligible successor, the cell retires in place and
//     an absorbing neighbor inherits its population. Retired cells stay in
//     s.cells (iteration order is part of the determinism contract) with
//     cleared overlay state.
//  3. CAN zone takeover: the retired cell's zone remaps onto its absorber so
//     hashed lookups and inter-cell routes keep resolving.
//
// Determinism rules: candidate ranking is an order-independent minimum over
// s.actuators with a smaller-NodeID tie-break (the property test permutes
// discovery order); absorber selection iterates s.cells in order; map
// iterations inside a merge perform only per-key-independent mutations. A
// sweep draws nothing from the world RNG; its only radio cost is one
// announcement broadcast per completed repair.

// RecoverSweep implements recovery.Repairer: one detection/repair pass over
// the active cells. A corner observed dead for at least grace is repaired;
// grace 0 repairs on first observation. Returns the actions applied, in
// cell order (re-elections per corner slot, then merge + takeover).
func (s *System) RecoverSweep(grace time.Duration) []recovery.Action {
	if !s.built {
		return nil
	}
	if s.cornerDownAt == nil {
		s.cornerDownAt = make(map[world.NodeID]time.Duration)
	}
	var actions []recovery.Action
	now := s.w.Now()
	for _, c := range s.cells {
		if c.retired {
			continue
		}
		merged := false
		for slot := 0; slot < 3 && !merged; slot++ {
			id := c.Corners[slot]
			if s.w.Node(id).Alive() {
				delete(s.cornerDownAt, id)
				continue
			}
			downAt, seen := s.cornerDownAt[id]
			if !seen {
				downAt = now
				s.cornerDownAt[id] = now
			}
			if now-downAt < grace {
				continue
			}
			if a, ok := s.reelectCorner(c, slot, downAt); ok {
				actions = append(actions, a)
				continue
			}
			// No eligible successor: retire the whole cell. The merge may
			// fail too (no active absorber this sweep) — then the cell stays
			// broken and the sweep retries; Theorem 3.8 corner fallback
			// carries what traffic it can meanwhile.
			ms := s.mergeCell(c, downAt)
			actions = append(actions, ms...)
			merged = len(ms) > 0
		}
	}
	return actions
}

// reelectCorner promotes the best surviving actuator into corner slot of c:
// alive, not already an overlay member of c, and within its own radio range
// of the vacant corner's build-time vertex (so it can serve the corner's
// geometric area). Nearest to the vertex wins; ties break on the smaller
// NodeID — an order-independent minimum, so permuting candidate discovery
// cannot change the winner.
func (s *System) reelectCorner(c *Cell, slot int, detectedAt time.Duration) (recovery.Action, bool) {
	old := c.Corners[slot]
	vertex := c.Vertices[slot]
	best := world.NoNode
	bestDist := 0.0
	for _, cand := range s.actuators {
		if !s.w.Node(cand).Alive() {
			continue
		}
		if c.rankOf(cand) >= 0 {
			continue // already corners this cell (actuators hold only corner KIDs)
		}
		d := s.w.Position(cand).Dist(vertex)
		if d > s.w.Node(cand).Range {
			continue
		}
		if best == world.NoNode || d < bestDist || (d == bestDist && cand < best) {
			best, bestDist = cand, d
		}
	}
	if best == world.NoNode {
		return recovery.Action{}, false
	}
	// Rebind the corner's KID to the winner.
	c.holder[c.rankOf(old)] = best
	c.Corners[slot] = best
	delete(s.cornerDownAt, best) // alive by construction; drop any stale record
	s.rebindMemberCell(old)
	s.rebindMemberCell(best)
	// Announcement cost: the promoted actuator broadcasts its new address to
	// the cell (mains-powered, and alive by construction).
	s.w.Broadcast(best, energy.Communication)
	return recovery.Action{
		Kind: recovery.Reelect, CID: c.CID, Corner: slot, NewCorner: best,
		DetectedAt: detectedAt, RepairedAt: s.w.Now(),
	}, true
}

// mergeCell retires c in place and moves its population into an absorbing
// neighbor, then remaps c's CAN zone onto the absorber. Returns the merge
// and takeover actions, or nil when no active absorber exists this sweep.
// Every map iteration below performs only mutations independent across
// keys, so Go's randomized map order cannot perturb the outcome.
func (s *System) mergeCell(c *Cell, detectedAt time.Duration) []recovery.Action {
	absorber := s.selectAbsorber(c)
	if absorber == nil {
		return nil
	}
	// Demote c's overlay sensors into the absorber's sleep pool: they hold
	// no KID anywhere afterwards, so they leave memberCell and any pending
	// degradation record.
	for _, id := range c.holder {
		if id == world.NoNode || s.w.Node(id).Kind != world.Sensor {
			continue
		}
		delete(s.memberCell, id)
		delete(s.degradedAt, id)
		absorber.members[id] = true
		s.sensorCell[id] = absorber
	}
	// Plain members follow.
	for id := range c.members {
		delete(s.degradedAt, id)
		absorber.members[id] = true
		s.sensorCell[id] = absorber
	}
	corners := c.Corners
	// Retire in place: c stays in s.cells (iteration order) with cleared
	// overlay state.
	c.freeAll()
	c.members = make(map[world.NodeID]bool)
	c.retired = true
	c.absorbedBy = absorber
	for _, corner := range corners {
		s.rebindMemberCell(corner)
	}
	// CAN zone takeover: hashed lookups and inter-cell routes addressing c
	// resolve to the absorber from now on (route remapping in route.go).
	if s.dht.takenOver == nil {
		s.dht.takenOver = make(map[int]int)
	}
	s.dht.takenOver[c.CID] = absorber.CID
	// Announcement cost: the absorber's first alive corner broadcasts the
	// takeover (it has one by selection).
	for _, corner := range absorber.Corners {
		if s.w.Node(corner).Alive() {
			s.w.Broadcast(corner, energy.Communication)
			break
		}
	}
	now := s.w.Now()
	return []recovery.Action{
		{Kind: recovery.Merge, CID: c.CID, AbsorberCID: absorber.CID,
			DetectedAt: detectedAt, RepairedAt: now},
		{Kind: recovery.Takeover, CID: c.CID, AbsorberCID: absorber.CID,
			DetectedAt: detectedAt, RepairedAt: now},
	}
}

// selectAbsorber picks the active cell that inherits c's population:
// CAN-adjacent cells first (members stay near their new overlay), then the
// most alive corners, then the nearest centroid, then the smallest CID
// (s.cells order keeps the whole ranking deterministic). A cell with no
// alive corner cannot absorb — it is itself waiting for repair.
func (s *System) selectAbsorber(c *Cell) *Cell {
	var best *Cell
	bestAdj := false
	bestAlive := -1
	bestDist := 0.0
	for _, cand := range s.cells {
		if cand == c || cand.retired {
			continue
		}
		alive := 0
		for _, corner := range cand.Corners {
			if s.w.Node(corner).Alive() {
				alive++
			}
		}
		if alive == 0 {
			continue
		}
		adj := cellsAdjacent(s.w, c, cand)
		d := c.Centroid.Dist(cand.Centroid)
		better := false
		switch {
		case best == nil:
			better = true
		case adj != bestAdj:
			better = adj
		case alive != bestAlive:
			better = alive > bestAlive
		case d != bestDist:
			better = d < bestDist
		}
		if better {
			best, bestAdj, bestAlive, bestDist = cand, adj, alive, d
		}
	}
	return best
}

// rebindMemberCell recomputes a node's memberCell entry after a repair moved
// overlay roles around: the first active cell (s.cells order) whose overlay
// the node serves, or no entry at all — the same first-cell tie-break the
// entry-selection scan uses.
func (s *System) rebindMemberCell(id world.NodeID) {
	for _, c := range s.cells {
		if c.retired {
			continue
		}
		if c.rankOf(id) >= 0 {
			s.memberCell[id] = c
			return
		}
	}
	delete(s.memberCell, id)
}

// activeCell resolves a cell through the merge chain: retired cells forward
// to their absorber. Chains terminate because an absorber is active when
// recorded and retirement is permanent, so no cycle can form.
func (s *System) activeCell(c *Cell) *Cell {
	for c != nil && c.retired {
		c = c.absorbedBy
	}
	return c
}
