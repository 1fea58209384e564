package core

import (
	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/world"
)

// Cell is one REFER cell: a triangle of actuators with an embedded K(2,3)
// Kautz graph (Section III-B).
type Cell struct {
	// CID is the cell identifier; its DHT coordinate is Centroid.
	CID int
	// Centroid is the triangle centroid (the cell's CAN coordinate).
	Centroid geo.Point
	// Corners are the three actuator node IDs.
	Corners [3]world.NodeID
	// Vertices are the corner positions at construction time.
	Vertices [3]geo.Point

	// NodeByKID maps every Kautz ID of the cell graph to the node currently
	// holding it. Entries change as maintenance replaces nodes.
	NodeByKID map[kautz.ID]world.NodeID
	kidOfNode map[world.NodeID]kautz.ID

	// members are the plain (non-overlay) sensors associated with the cell:
	// the sleep/wait population that candidates are drawn from.
	members map[world.NodeID]bool

	// retired marks a cell dissolved by a recovery merge: it stays in
	// s.cells (iteration order is part of the determinism contract) but its
	// overlay state is empty and absorbedBy points at the cell that
	// inherited its members and CAN zone (see recover.go). Retirement is
	// permanent, so absorber chains never cycle.
	retired    bool
	absorbedBy *Cell
}

// KIDOf returns the node's Kautz ID within this cell.
func (c *Cell) KIDOf(id world.NodeID) (kautz.ID, bool) {
	kid, ok := c.kidOfNode[id]
	return kid, ok
}

// Node returns the node holding a KID.
func (c *Cell) Node(kid kautz.ID) (world.NodeID, bool) {
	id, ok := c.NodeByKID[kid]
	return id, ok
}

// IsActuatorKID reports whether kid is one of the three corner KIDs.
func (c *Cell) IsActuatorKID(kid kautz.ID) bool {
	for _, corner := range c.Corners {
		if c.kidOfNode[corner] == kid {
			return true
		}
	}
	return false
}

// Members returns the plain-sensor population of the cell (the candidate
// pool), alive or not, excluding overlay members.
func (c *Cell) Members() []world.NodeID {
	out := make([]world.NodeID, 0, len(c.members))
	for id := range c.members {
		if _, overlay := c.kidOfNode[id]; !overlay {
			out = append(out, id)
		}
	}
	return out
}

// contains reports whether p lies within the cell triangle expanded by
// margin meters (a point within margin of the triangle counts).
func (c *Cell) contains(p geo.Point, margin float64) bool {
	a, b, d := c.Vertices[0], c.Vertices[1], c.Vertices[2]
	if geo.PointInTriangle(p, a, b, d) {
		return true
	}
	return margin > 0 && c.distance(p) <= margin
}

// distance returns how far p lies outside the cell triangle (0 if inside).
func (c *Cell) distance(p geo.Point) float64 {
	return geo.DistToTriangle(p, c.Vertices[0], c.Vertices[1], c.Vertices[2])
}

// pathKIDs returns the two sensor KIDs on the Kautz path from corner KID x
// to its successor corner rotateLeft(x): shift(x, x2) and then shift(·, x3).
// For x = 201 this yields 010, 101 (the paper's Section III-B-2 example).
func pathKIDs(x kautz.ID) (s1, s2 kautz.ID) {
	s1 = x.MustShift(x.At(1))
	s2 = s1.MustShift(x.At(2))
	return s1, s2
}

// rotateLeft returns the left rotation of a KID (the successor actuator's
// KID in the corner cycle: 012 → 120 → 201 → 012).
func rotateLeft(x kautz.ID) kautz.ID {
	return x.MustShift(x.First())
}
