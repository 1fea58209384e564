package core

import (
	"fmt"

	"refer/internal/kautz"
	"refer/internal/world"
)

// CheckInvariants audits the structural invariants of the built REFER
// network and returns the first violation, or nil. It is the conformance
// harness's probe point (see internal/chaos): called after every injected
// fault and at run end, it must hold no matter how the world is tortured,
// so every check below is something maintenance and routing guarantee
// unconditionally — not a property that only holds in fault-free runs.
//
//  1. Cell record: no node holds two KIDs of a cell. (A KID has one holder
//     slot, so no KID can have two holders.)
//  2. Corners: each of the three corner actuators holds a KID.
//  3. Membership: an overlay sensor is registered in sensorCell for
//     exactly the cell whose overlay it serves; a sensor never serves two
//     cells' overlays.
//  4. Theorem 3.8 soundness: for every ordered pair of the cell graph the
//     route set actually served to relays (the precomputed table's) passes
//     kautz.VerifyRoutes — so every failover switch, which by construction
//     moves to the next route of this set, lands on a valid disjoint-path
//     successor.
//  5. Recovery: a cell retired by a merge holds no overlay state at all and
//     its absorber chain resolves to an active cell; every CAN zone
//     takeover maps a retired cell to a chain ending in an active one. The
//     conformance harness probes this (with 1–4) after every individual
//     recovery action, not just at end of run.
//
// Overlay-link serviceability is deliberately not a hard invariant: the
// embedding tolerates physically broken arcs by design (flight.sendLink
// falls back to a relay, Theorem 3.8 failover routes around the rest), so
// a blackout can legitimately leave arcs unserviceable until maintenance
// replaces their endpoints.
func (s *System) CheckInvariants() error {
	if !s.built {
		return nil
	}
	holders := make(map[world.NodeID]*Cell)
	for _, c := range s.cells {
		if c.retired {
			if c.held() != 0 || len(c.members) != 0 {
				return fmt.Errorf("core: retired cell %d still holds overlay state", c.CID)
			}
			if a := s.activeCell(c); a == nil || a.retired {
				return fmt.Errorf("core: retired cell %d has no active absorber", c.CID)
			}
			continue
		}
		for r, id := range c.holder {
			if first := c.rankOf(id); id != world.NoNode && first != r {
				return fmt.Errorf("core: cell %d: node %d holds KIDs %s and %s", c.CID, id, s.kids[first], s.kids[r])
			}
		}
		for _, corner := range c.Corners {
			if c.rankOf(corner) < 0 {
				return fmt.Errorf("core: cell %d: corner actuator %d holds no KID", c.CID, corner)
			}
			if s.w.Node(corner).Kind != world.Actuator {
				return fmt.Errorf("core: cell %d: corner %d is not an actuator", c.CID, corner)
			}
		}
		for _, id := range c.holder {
			if id == world.NoNode || s.w.Node(id).Kind != world.Sensor {
				continue
			}
			if other, taken := holders[id]; taken {
				return fmt.Errorf("core: sensor %d serves the overlays of cells %d and %d", id, other.CID, c.CID)
			}
			holders[id] = c
			if sc, ok := s.sensorCell[id]; !ok || sc != c {
				return fmt.Errorf("core: overlay sensor %d of cell %d not registered in sensorCell", id, c.CID)
			}
		}
	}
	if s.dht != nil {
		for cid := range s.dht.takenOver {
			c, ok := s.cellByCID[cid]
			if !ok || !c.retired {
				return fmt.Errorf("core: CAN takeover recorded for non-retired cell %d", cid)
			}
			target, ok := s.cellByCID[s.dht.resolve(cid)]
			if !ok || target.retired {
				return fmt.Errorf("core: CAN takeover of cell %d resolves to a retired zone", cid)
			}
		}
	}
	return s.checkRouteSoundness()
}

// checkRouteSoundness verifies the exact route sets relays forward and
// fail over through, the precomputed table's, for every ordered pair of the
// cell graph.
func (s *System) checkRouteSoundness() error {
	for _, u := range s.kids {
		for _, v := range s.kids {
			if u == v {
				continue
			}
			routes, _ := s.routes.Routes(u, v)
			if err := kautz.VerifyRoutes(s.cfg.Degree, u, v, routes); err != nil {
				return fmt.Errorf("core: failover soundness: %w", err)
			}
		}
	}
	return nil
}
