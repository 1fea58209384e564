package core

import (
	"fmt"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/world"
)

// embedCellGeneral embeds a K(d,3) graph with d > 2 into a cell — the
// paper's stated future work ("we will also investigate ... the Kautz
// graph K(d,k) with various d and k values"). The three corner KIDs stay
// the rotations of 012 (valid in any alphabet with d ≥ 2), and the
// remaining (d+1)d² − 3 KIDs are assigned by a greedy wavefront that
// generalizes the paper's path-query idea:
//
//  1. repeatedly pick the unassigned KID with the most already-assigned
//     overlay partners (successors + predecessors) — the KID whose radio
//     constraints are best known;
//  2. assign it the candidate sensor that reaches the most of those
//     partners' nodes, breaking ties by residual battery and then by
//     physical tightness (the paper's accumulated-energy rule);
//  3. charge the probe/notify messages the selection costs.
//
// Like the TTL-2 path queries of the K(2,3) protocol, the wavefront keeps
// overlay neighbors physically close, but it cannot always make every arc
// a single radio hop in a d > 2 cell (there are more arcs than geometry
// allows); the router's relay fallback covers the rest.
func (s *System) embedCellGeneral(c *Cell) error {
	unassigned := make([]int, 0, s.graph.N()-3) // KID ranks
	for r, id := range c.holder {
		if id == world.NoNode {
			unassigned = append(unassigned, r)
		}
	}
	// One probe query per corner bootstraps the wavefront (the analogue of
	// the actuator path queries).
	for _, corner := range c.Corners {
		s.w.Flood(corner, 2, energy.Construction, func(at, _ world.NodeID) bool {
			return c.members[at]
		}, nil)
	}
	for len(unassigned) > 0 {
		r, idx := s.nextWavefrontKID(c, unassigned)
		cand, err := s.selectWavefrontSensor(c, r)
		if err != nil {
			return fmt.Errorf("KID %s: %w", s.kids[r], err)
		}
		s.assignKID(c, cand, s.kids[r])
		// Selection cost: the assigning neighbor notifies the candidate.
		partners := s.overlayPartners(c, r)
		notifier := partners[0]
		for _, p := range partners[1:] {
			if s.w.Position(p).Dist(s.w.Position(cand)) < s.w.Position(notifier).Dist(s.w.Position(cand)) {
				notifier = p
			}
		}
		s.w.Send(notifier, cand, energy.Construction, nil)
		unassigned = append(unassigned[:idx], unassigned[idx+1:]...)
	}
	if n := c.held(); n != s.graph.N() {
		return fmt.Errorf("incomplete embedding: %d of %d KIDs", n, s.graph.N())
	}
	return nil
}

// nextWavefrontKID returns the rank of the unassigned KID with the most
// assigned overlay partners (ties by KID order for determinism) and its
// index in unassigned.
func (s *System) nextWavefrontKID(c *Cell, unassigned []int) (int, int) {
	best, bestIdx, bestConn := unassigned[0], 0, -1
	for i, r := range unassigned {
		conn := len(s.overlayPartners(c, r))
		if conn > bestConn || (conn == bestConn && r < best) {
			best, bestIdx, bestConn = r, i, conn
		}
	}
	return best, bestIdx
}

// selectWavefrontSensor picks the cell sensor for the KID of rank r: reach
// the most assigned partners, then highest battery, then smallest total
// distance to the partners.
func (s *System) selectWavefrontSensor(c *Cell, r int) (world.NodeID, error) {
	partners := s.overlayPartners(c, r)
	if len(partners) == 0 {
		return world.NoNode, fmt.Errorf("no assigned overlay partner")
	}
	positions := make([]geo.Point, len(partners))
	for i, p := range partners {
		positions[i] = s.w.Position(p)
	}
	pool := s.candidatePool(c) // already ID-sorted
	best := world.NoNode
	bestConn, bestScore, bestTight := 0, -1.0, 0.0
	for _, cand := range pool {
		p := s.w.Position(cand)
		conn, tight := 0, 0.0
		for i, partner := range partners {
			d := p.Dist(positions[i])
			tight += d
			if d <= s.w.LinkRange(cand, partner) {
				conn++
			}
		}
		if conn == 0 {
			continue
		}
		score := s.w.Node(cand).Meter.Fraction()
		better := conn > bestConn ||
			(conn == bestConn && score > bestScore) ||
			(conn == bestConn && score == bestScore && tight < bestTight)
		if better {
			best, bestConn, bestScore, bestTight = cand, conn, score, tight
		}
	}
	if best == world.NoNode {
		return world.NoNode, fmt.Errorf("no sensor reaches any assigned partner (cell too sparse for K(%d,3))", s.cfg.Degree)
	}
	return best, nil
}
