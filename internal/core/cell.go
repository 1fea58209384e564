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

	// holder[r] is the node holding the cell graph's KID of rank r
	// (graph.Index; kids[r] is that KID), or world.NoNode while it is free.
	// Maintenance and recovery change holders, never the KID set, so these
	// slots are the cell's one record of who holds what. A node holds at
	// most one KID per cell.
	holder []world.NodeID
	graph  *kautz.Graph
	kids   []kautz.ID

	// members are the sensors homed in the cell (the sleep/wait population
	// candidates are drawn from) and, since the build never removes them,
	// the sensors it embedded. A maintenance replacement removes its new
	// holder and adds the node it demotes, so the only holders listed here
	// are build-time holders not yet replaced.
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
	if r := c.rankOf(id); r >= 0 {
		return c.kids[r], true
	}
	return "", false
}

// Node returns the node holding a KID; false when the KID is free or no
// node of the cell graph.
func (c *Cell) Node(kid kautz.ID) (world.NodeID, bool) {
	r := c.graph.Index(kid)
	if r < 0 || c.holder[r] == world.NoNode {
		return world.NoNode, false
	}
	return c.holder[r], true
}

// rankOf returns the rank of the KID id holds, or -1 when it holds none.
func (c *Cell) rankOf(id world.NodeID) int {
	if id == world.NoNode {
		return -1
	}
	for r, h := range c.holder {
		if h == id {
			return r
		}
	}
	return -1
}

// held returns how many of the cell's KIDs have a holder.
func (c *Cell) held() int {
	n := 0
	for _, h := range c.holder {
		if h != world.NoNode {
			n++
		}
	}
	return n
}

// freeAll releases every KID of the cell.
func (c *Cell) freeAll() {
	for r := range c.holder {
		c.holder[r] = world.NoNode
	}
}

// isCorner reports whether id is one of the cell's three corner actuators.
func (c *Cell) isCorner(id world.NodeID) bool {
	return id == c.Corners[0] || id == c.Corners[1] || id == c.Corners[2]
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
