// Package can implements the CAN-style DHT upper tier of REFER
// (Section III-B-3): actuators own zones identified by cell IDs (CIDs),
// keep neighbor sets, and route inter-cell messages greedily to the
// neighbor whose CID coordinate is closest to the destination cell.
//
// The paper measures cell distance as "the Euclidean distance between their
// CIDs" and assigns closer CIDs to closer cells; we realize that by using
// the cell centroid as the CID coordinate (a scalar index is kept for
// display, mirroring Figure 1's numbering).
package can

import (
	"fmt"
	"sort"

	"refer/internal/geo"
)

// Zone is one cell's entry in the DHT: its scalar CID and its coordinate.
type Zone struct {
	CID   int
	Coord geo.Point
}

// Table is the CAN routing state: the zone set and the zone adjacency
// derived from which actuators can talk to each other. Tables are immutable
// after construction.
type Table struct {
	zones     []Zone
	neighbors map[int][]int
}

// New builds a table. adjacency[i] lists the CIDs adjacent to zones[i].CID
// (must be symmetric for greedy routing to behave; Validate checks this).
func New(zones []Zone, adjacency map[int][]int) (*Table, error) {
	if len(zones) == 0 {
		return nil, fmt.Errorf("can: no zones")
	}
	byCID := make(map[int]bool, len(zones))
	for _, z := range zones {
		if byCID[z.CID] {
			return nil, fmt.Errorf("can: duplicate CID %d", z.CID)
		}
		byCID[z.CID] = true
	}
	t := &Table{
		zones:     append([]Zone(nil), zones...),
		neighbors: make(map[int][]int, len(adjacency)),
	}
	sort.Slice(t.zones, func(i, j int) bool { return t.zones[i].CID < t.zones[j].CID })
	for cid, nbs := range adjacency {
		if !byCID[cid] {
			return nil, fmt.Errorf("can: adjacency for unknown CID %d", cid)
		}
		for _, nb := range nbs {
			if !byCID[nb] {
				return nil, fmt.Errorf("can: CID %d adjacent to unknown CID %d", cid, nb)
			}
			if nb == cid {
				continue
			}
			t.neighbors[cid] = append(t.neighbors[cid], nb)
		}
		sort.Ints(t.neighbors[cid])
	}
	return t, nil
}

// Zone returns the zone with the given CID.
func (t *Table) Zone(cid int) (Zone, bool) {
	i := sort.Search(len(t.zones), func(i int) bool { return t.zones[i].CID >= cid })
	if i < len(t.zones) && t.zones[i].CID == cid {
		return t.zones[i], true
	}
	return Zone{}, false
}

// Neighbors returns the CIDs adjacent to cid.
func (t *Table) Neighbors(cid int) []int {
	return append([]int(nil), t.neighbors[cid]...)
}

// NextHop returns the neighbor of from whose coordinate is closest to the
// destination zone's coordinate, provided it improves on from's own
// distance (greedy CAN forwarding). ok is false at the destination or at a
// local minimum (no neighbor makes progress).
func (t *Table) NextHop(from, dest int) (next int, ok bool) {
	if from == dest {
		return 0, false
	}
	dz, found := t.Zone(dest)
	if !found {
		return 0, false
	}
	fz, found := t.Zone(from)
	if !found {
		return 0, false
	}
	best, bestDist := -1, fz.Coord.Dist(dz.Coord)
	for _, nb := range t.neighbors[from] {
		nz, _ := t.Zone(nb)
		if d := nz.Coord.Dist(dz.Coord); d < bestDist {
			best, bestDist = nb, d
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Route returns the full greedy CID route from from to dest, inclusive.
// ok is false when greedy forwarding reaches a local minimum first; Route
// then falls back to BFS over the zone adjacency (RouteBFS) so inter-cell
// delivery still succeeds, and ok reports whether pure greedy sufficed.
func (t *Table) Route(from, dest int) (route []int, greedyOK bool) {
	route = []int{from}
	cur := from
	for cur != dest {
		next, ok := t.NextHop(cur, dest)
		if !ok {
			bfs := t.RouteBFS(cur, dest)
			if bfs == nil {
				return nil, false
			}
			return append(route, bfs[1:]...), false
		}
		route = append(route, next)
		cur = next
		if len(route) > len(t.zones)+1 {
			return nil, false
		}
	}
	return route, true
}

// RouteBFS returns the hop-shortest CID route over the zone adjacency, or
// nil if disconnected.
func (t *Table) RouteBFS(from, dest int) []int {
	if from == dest {
		return []int{from}
	}
	prev := map[int]int{from: from}
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.neighbors[cur] {
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = cur
			if nb == dest {
				var route []int
				for at := dest; ; at = prev[at] {
					route = append(route, at)
					if at == from {
						break
					}
				}
				for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
					route[i], route[j] = route[j], route[i]
				}
				return route
			}
			queue = append(queue, nb)
		}
	}
	return nil
}
