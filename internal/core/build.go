package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"refer/internal/can"
	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/world"
)

// cornerBase is the canonical corner KID; its rotations 012 → 120 → 201 are
// the three actuator KIDs of every cell (Section III-B-1).
var cornerBase = kautz.ID("012")

// Build runs the Kautz graph embedding protocol: actuator ID assignment,
// sensor ID assignment per cell, the CAN upper tier, and the maintenance
// schedule. All message costs are charged to the construction ledger.
func (s *System) Build() error {
	if s.built {
		return fmt.Errorf("core: system already built")
	}
	if s.cfg.Degree < 2 || s.cfg.Degree > kautz.MaxDegree {
		return fmt.Errorf("core: the embedding protocol implements K(d,%d) cells with 2 <= d <= %d; got d = %d",
			diameter, kautz.MaxDegree, s.cfg.Degree)
	}
	g, err := kautz.New(s.cfg.Degree, diameter)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.graph = g
	// Share the process-wide precomputed route table for the cell graph; a
	// K(d,3) cell is small enough that every (u, v) route set is tabulated
	// once per process instead of on every forwarding decision.
	if s.routes, err = kautz.TableFor(s.cfg.Degree, diameter); err != nil {
		return fmt.Errorf("core: route table: %w", err)
	}

	for _, n := range s.w.Nodes() {
		if n.Kind == world.Actuator {
			s.actuators = append(s.actuators, n.ID)
		}
	}
	if len(s.actuators) < 3 {
		return fmt.Errorf("core: need at least 3 actuators, have %d", len(s.actuators))
	}

	// --- Actuator ID assignment (Section III-B-1) ---
	// Neighbor exchange: every actuator broadcasts its presence and hash
	// "to all nodes in the cells" — a two-hop flood, since one sensor-range
	// hop does not cover a cell.
	for _, a := range s.actuators {
		s.w.Flood(a, 2, energy.Construction, nil, nil)
	}
	// The minimum-hash actuator becomes the starting server.
	leader := electLeader(s.actuators)

	// The starting server partitions the actuator topology into triangles.
	positions := make([]geo.Point, len(s.actuators))
	for i, a := range s.actuators {
		positions[i] = s.w.Position(a)
	}
	adjacency := s.actuatorAdjacency(positions)
	triangles, err := geo.Triangulate(positions, adjacency)
	if err != nil {
		return fmt.Errorf("core: cell partition: %w", err)
	}

	// Sequential vertex coloring over triangle edges → corner KIDs. The
	// color is global per actuator, so an actuator keeps the same KID in
	// every cell it belongs to (reduces system complexity, Section III-B).
	colors := s.colorActuators(triangles)

	// Materialize cells, fixing per-cell color clashes if the greedy
	// coloring needed more than three colors (documented deviation).
	for idx, tri := range triangles {
		cell, err := s.newCell(idx, tri, positions, colors)
		if err != nil {
			return fmt.Errorf("core: cell %d: %w", idx, err)
		}
		s.cells = append(s.cells, cell)
		s.cellByCID[cell.CID] = cell
	}
	// The cell spatial index: triangles are fixed for the system's lifetime,
	// so it is built once here and every position→cell lookup (sensor homing,
	// DHT adjacency) runs against it instead of scanning s.cells.
	tris := make([][3]geo.Point, len(s.cells))
	for i, c := range s.cells {
		tris[i] = c.Vertices
	}
	s.cellIndex = geo.NewTriIndex(tris)
	// Corner actuators enter the member→cell map in s.cells order, so an
	// actuator shared by several cells resolves to its first cell.
	for _, c := range s.cells {
		for _, corner := range c.Corners {
			if _, ok := s.memberCell[corner]; !ok {
				s.memberCell[corner] = c
			}
		}
	}

	// The starting server notifies every actuator of its ID along a DFS of
	// the actuator topology: one unicast per tree edge.
	s.notifyActuators(leader, adjacency)

	// --- Sensor ID assignment (Section III-B-2) ---
	s.assignCellSensors()
	for _, c := range s.cells {
		var err error
		if s.cfg.Degree == 2 {
			err = s.embedCell(c) // the paper's exact K(2,3) protocol
		} else {
			err = s.embedCellGeneral(c) // generalized K(d,3), paper's future work
		}
		if err != nil {
			return fmt.Errorf("core: embedding cell %d: %w", c.CID, err)
		}
	}

	// --- DHT upper tier (Section III-B-3) ---
	if err := s.buildDHT(); err != nil {
		return fmt.Errorf("core: DHT tier: %w", err)
	}

	// --- Topology maintenance (Section III-B-4) ---
	if !s.cfg.DisableMaintenance {
		s.scheduleMaintenance()
	}

	s.built = true
	return nil
}

// actuatorAdjacency derives the actuator communication graph: indices i, j
// are adjacent when within both transmission ranges.
func (s *System) actuatorAdjacency(positions []geo.Point) [][]int {
	adj := make([][]int, len(s.actuators))
	for i := range s.actuators {
		ri := s.w.Node(s.actuators[i]).Range
		for j := range s.actuators {
			if i == j {
				continue
			}
			rj := s.w.Node(s.actuators[j]).Range
			d := positions[i].Dist(positions[j])
			if d <= ri && d <= rj {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// colorActuators greedily colors actuators so that triangle corners get
// distinct colors; color c maps to the c-th rotation of 012.
func (s *System) colorActuators(triangles []geo.Triangle) []int {
	n := len(s.actuators)
	conflicts := make([]map[int]bool, n)
	for i := range conflicts {
		conflicts[i] = make(map[int]bool)
	}
	for _, t := range triangles {
		vs := t.Vertices()
		for _, a := range vs {
			for _, b := range vs {
				if a != b {
					conflicts[a][b] = true
				}
			}
		}
	}
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	// Sequential vertex coloring in index order: smallest color not used by
	// an already-colored conflicting neighbor.
	for i := 0; i < n; i++ {
		used := make(map[int]bool)
		for nb := range conflicts[i] {
			if colors[nb] >= 0 {
				used[colors[nb]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[i] = c
	}
	return colors
}

// cornerKIDForColor returns the corner KID for a color 0..2.
func cornerKIDForColor(c int) kautz.ID {
	kid := cornerBase
	for i := 0; i < c; i++ {
		kid = rotateLeft(kid)
	}
	return kid
}

// newCell creates a cell for a triangle and assigns its corner KIDs.
func (s *System) newCell(idx int, tri geo.Triangle, positions []geo.Point, colors []int) (*Cell, error) {
	vs := tri.Vertices()
	cell := &Cell{
		CID:       idx,
		Centroid:  tri.Centroid(positions),
		NodeByKID: make(map[kautz.ID]world.NodeID, s.graph.N()),
		kidOfNode: make(map[world.NodeID]kautz.ID, s.graph.N()),
		members:   make(map[world.NodeID]bool),
	}
	for i, v := range vs {
		cell.Corners[i] = s.actuators[v]
		cell.Vertices[i] = positions[v]
	}
	// Assign corner KIDs from global colors; clashes (colors >= 3 or
	// duplicates within the triangle) fall back to the free rotations.
	taken := make(map[kautz.ID]bool, 3)
	pending := make([]int, 0, 3)
	for i, v := range vs {
		if colors[v] < 3 {
			kid := cornerKIDForColor(colors[v])
			if !taken[kid] {
				taken[kid] = true
				cell.NodeByKID[kid] = s.actuators[v]
				cell.kidOfNode[s.actuators[v]] = kid
				continue
			}
		}
		pending = append(pending, i)
	}
	for _, i := range pending {
		assigned := false
		for c := 0; c < 3; c++ {
			kid := cornerKIDForColor(c)
			if !taken[kid] {
				taken[kid] = true
				cell.NodeByKID[kid] = s.actuators[vs[i]]
				cell.kidOfNode[s.actuators[vs[i]]] = kid
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, fmt.Errorf("could not assign corner KIDs")
		}
	}
	return cell, nil
}

// electLeader returns the starting server of Section III-B-1: the actuator
// whose address "actuator-<id>" has the minimum consistent-hash value
// (64-bit FNV-1a), ties broken lexicographically so the election is total
// and independent of the order actuators are listed in. The caller
// guarantees at least one actuator.
func electLeader(actuators []world.NodeID) world.NodeID {
	var leader world.NodeID
	var bestKey string
	var bestHash uint64
	for i, a := range actuators {
		key := fmt.Sprintf("actuator-%d", a)
		h := fnv.New64a()
		_, _ = h.Write([]byte(key)) // fnv.Write never fails
		if sum := h.Sum64(); i == 0 || sum < bestHash || (sum == bestHash && key < bestKey) {
			leader, bestKey, bestHash = a, key, sum
		}
	}
	return leader
}

// notifyActuators charges the DFS ID-notification messages from the leader.
func (s *System) notifyActuators(leader world.NodeID, adjacency [][]int) {
	index := make(map[world.NodeID]int, len(s.actuators))
	for i, a := range s.actuators {
		index[a] = i
	}
	visited := make(map[int]bool, len(s.actuators))
	var dfs func(i int)
	dfs = func(i int) {
		visited[i] = true
		for _, j := range adjacency[i] {
			if !visited[j] {
				s.w.Send(s.actuators[i], s.actuators[j], energy.Construction, nil)
				dfs(j)
			}
		}
	}
	dfs(index[leader])
}

// assignCellSensors associates every sensor with a cell: the triangle that
// strictly contains it (triangle interiors partition the covered area), or
// else the nearest cell within cellMargin. Sensors outside every cell stay
// unaffiliated; they can still source data through any nearby overlay node.
func (s *System) assignCellSensors() {
	for _, n := range s.w.Nodes() {
		if n.Kind != world.Sensor {
			continue
		}
		p := s.w.Position(n.ID)
		s.notePosition(n.ID, p)
		owner := s.homeCell(p)
		if owner != nil {
			owner.members[n.ID] = true
			s.sensorCell[n.ID] = owner
		}
	}
	s.homedLen = s.w.Len()
}

// homeCell returns the cell a sensor at p belongs to: the first cell (in
// s.cells order) whose triangle contains p, else the nearest cell within
// cellMargin (the last of equally near cells), else nil. Ownership is
// decided over the full fixed triangle set — including cells since retired
// by a recovery merge — and then resolved through the absorber chain.
// TestIndexedEquivalenceUnderMobilityAndChurn checks the answer against a
// linear scan of s.cells.
func (s *System) homeCell(p geo.Point) *Cell {
	ti := s.cellIndex.Containing(p)
	if ti < 0 {
		ti = s.cellIndex.NearestWithin(p, cellMargin)
	}
	if ti < 0 {
		return nil
	}
	return s.activeCell(s.cells[ti])
}

// notePosition memoizes the position a sensor was last homed at (growing
// the memo to cover the sensor on first use).
func (s *System) notePosition(id world.NodeID, p geo.Point) {
	for len(s.homePos) <= int(id) {
		s.homePos = append(s.homePos, geo.Point{})
		s.homeValid = append(s.homeValid, false)
	}
	s.homePos[id] = p
	s.homeValid[id] = true
}

// embedCell selects sensors for the nine non-corner KIDs of a cell
// (Section III-B-2): three TTL-2 path queries between successive corner
// actuators, one sensor-to-sensor path query, and one final common-neighbor
// assignment. Path queries are real floods (energy!); path selection picks
// the highest accumulated battery, with physical tightness as tie-break.
func (s *System) embedCell(c *Cell) error {
	// Corner KIDs in KID order so the protocol is deterministic.
	cornerKIDs := []kautz.ID{cornerBase, rotateLeft(cornerBase), rotateLeft(rotateLeft(cornerBase))}

	// Step 1: actuator-to-successor paths.
	for _, x := range cornerKIDs {
		from := c.NodeByKID[x]
		to := c.NodeByKID[rotateLeft(x)]
		s1KID, s2KID := pathKIDs(x)
		a, b, err := s.selectPathSensors(c, from, to)
		if err != nil {
			return fmt.Errorf("path %s→%s: %w", x, rotateLeft(x), err)
		}
		s.assignKID(c, a, s1KID)
		s.assignKID(c, b, s2KID)
		// ID notification to the two selected sensors.
		s.w.Send(to, b, energy.Construction, nil)
		s.w.Send(to, a, energy.Construction, nil)
	}

	// Step 2: the sensor-to-sensor path. S_i is the successor of the
	// smallest corner KID, S_j the predecessor of the largest corner KID.
	smallest, largest := cornerKIDs[0], cornerKIDs[0]
	for _, kid := range cornerKIDs[1:] {
		if kid < smallest {
			smallest = kid
		}
		if kid > largest {
			largest = kid
		}
	}
	si, _ := pathKIDs(smallest)
	var sj kautz.ID
	for _, x := range cornerKIDs {
		if rotateLeft(x) == largest {
			_, sj = pathKIDs(x)
		}
	}
	siNode, sjNode := c.NodeByKID[si], c.NodeByKID[sj]
	mid1 := si.MustShift(sj.At(0))
	mid2 := mid1.MustShift(sj.At(1))
	a, b, err := s.selectPathSensors(c, siNode, sjNode)
	if err != nil {
		return fmt.Errorf("sensor path %s→%s: %w", si, sj, err)
	}
	s.assignKID(c, a, mid1)
	s.assignKID(c, b, mid2)
	s.w.Send(sjNode, a, energy.Construction, nil)
	s.w.Send(sjNode, b, energy.Construction, nil)

	// Step 3: the last KID goes to the best common neighbor of the two
	// just-selected sensors — or, in sparse cells without one, to the
	// sensor best connected to the KID's overlay partners (the same rule
	// maintenance uses for candidates).
	var lastKID kautz.ID
	for _, kid := range s.graph.Nodes() {
		if _, taken := c.NodeByKID[kid]; !taken {
			lastKID = kid
			break
		}
	}
	if lastKID == "" {
		return fmt.Errorf("no remaining KID for the final assignment")
	}
	last, err := s.selectCommonNeighbor(c, a, b)
	if err != nil {
		last, err = s.selectBestConnected(c, lastKID)
	}
	if err != nil {
		return fmt.Errorf("final KID %s: %w", lastKID, err)
	}
	s.assignKID(c, last, lastKID)
	s.w.Broadcast(a, energy.Construction) // common-neighbor probe
	s.w.Send(a, last, energy.Construction, nil)

	// Sanity: the embedding must be complete.
	if len(c.NodeByKID) != s.graph.N() {
		return fmt.Errorf("incomplete embedding: %d of %d KIDs", len(c.NodeByKID), s.graph.N())
	}
	return nil
}

// assignKID records a sensor's KID in its cell and registers the sensor as
// an overlay member for entry selection (a sensor serves at most one cell's
// overlay, so first registration wins).
func (s *System) assignKID(c *Cell, id world.NodeID, kid kautz.ID) {
	c.NodeByKID[kid] = id
	c.kidOfNode[id] = kid
	if _, ok := s.memberCell[id]; !ok {
		s.memberCell[id] = c
	}
}

// selectPathSensors runs a TTL-2 path query from from toward to (paying the
// flood) and picks the two intermediate sensors with the highest
// accumulated energy whose chain from→a→b→to is bidirectionally connected.
func (s *System) selectPathSensors(c *Cell, from, to world.NodeID) (a, b world.NodeID, err error) {
	// The path query flood: TTL 2, restricted to the cell's sensors.
	s.w.Flood(from, 2, energy.Construction, func(at world.NodeID, hops int, path []world.NodeID) bool {
		return c.members[at] // only cell sensors relay the query
	}, nil)

	candidates := s.candidatePool(c)
	bestScore, bestTight := -1.0, 0.0
	a, b = world.NoNode, world.NoNode
	pTo := s.w.Position(to)
	pFrom := s.w.Position(from)
	for _, x := range candidates {
		px := s.w.Position(x)
		if px.Dist(pFrom) > s.w.LinkRange(from, x) {
			continue
		}
		for _, y := range candidates {
			if x == y {
				continue
			}
			py := s.w.Position(y)
			if px.Dist(py) > s.w.LinkRange(x, y) {
				continue
			}
			if py.Dist(pTo) > s.w.LinkRange(y, to) {
				continue
			}
			score := s.w.Node(x).Meter.Fraction() + s.w.Node(y).Meter.Fraction()
			tight := pFrom.Dist(px) + px.Dist(py) + py.Dist(pTo)
			if score > bestScore || (score == bestScore && tight < bestTight) {
				bestScore, bestTight = score, tight
				a, b = x, y
			}
		}
	}
	if a == world.NoNode {
		return world.NoNode, world.NoNode, fmt.Errorf("no connected sensor pair between %d and %d", from, to)
	}
	return a, b, nil
}

// selectCommonNeighbor picks the highest-battery unassigned cell sensor in
// range of both x and y.
func (s *System) selectCommonNeighbor(c *Cell, x, y world.NodeID) (world.NodeID, error) {
	best := world.NoNode
	bestScore := -1.0
	px, py := s.w.Position(x), s.w.Position(y)
	for _, cand := range s.candidatePool(c) {
		p := s.w.Position(cand)
		if p.Dist(px) > s.w.LinkRange(x, cand) || p.Dist(py) > s.w.LinkRange(y, cand) {
			continue
		}
		if score := s.w.Node(cand).Meter.Fraction(); score > bestScore {
			best, bestScore = cand, score
		}
	}
	if best == world.NoNode {
		return world.NoNode, fmt.Errorf("no common neighbor of %d and %d", x, y)
	}
	return best, nil
}

// selectBestConnected picks the alive unassigned cell sensor with radio
// links to the most overlay partners of kid (at least one required);
// battery breaks ties.
func (s *System) selectBestConnected(c *Cell, kid kautz.ID) (world.NodeID, error) {
	partners := s.overlayPartners(c, kid)
	best := world.NoNode
	bestConn, bestScore := 0, -1.0
	for _, cand := range s.candidatePool(c) {
		p := s.w.Position(cand)
		conn := 0
		for _, partner := range partners {
			if p.Dist(s.w.Position(partner)) <= s.w.LinkRange(cand, partner) {
				conn++
			}
		}
		if conn == 0 {
			continue
		}
		score := s.w.Node(cand).Meter.Fraction()
		if conn > bestConn || (conn == bestConn && score > bestScore) {
			best, bestConn, bestScore = cand, conn, score
		}
	}
	if best == world.NoNode {
		return world.NoNode, fmt.Errorf("no sensor connects to any overlay partner of %s", kid)
	}
	return best, nil
}

// candidatePool returns the alive, unassigned sensors of a cell sorted by
// ID (deterministic iteration). The returned slice is the system's reused
// buffer: it is only borrowed, valid until the next candidatePool call, and
// sorted by insertion into the retained storage so the per-round maintenance
// path allocates nothing at steady state.
func (s *System) candidatePool(c *Cell) []world.NodeID {
	pool := s.poolBuf[:0]
	for id := range c.members {
		if _, taken := c.kidOfNode[id]; taken {
			continue
		}
		if !s.w.Node(id).Alive() {
			continue
		}
		pool = append(pool, id)
		for j := len(pool) - 1; j > 0 && pool[j] < pool[j-1]; j-- {
			pool[j], pool[j-1] = pool[j-1], pool[j]
		}
	}
	s.poolBuf = pool
	return pool
}

// buildDHT assembles the CAN tier: one zone per cell, zones adjacent when
// their triangles share an actuator or their nearest actuators are in
// radio range.
func (s *System) buildDHT() error {
	zones := make([]can.Zone, 0, len(s.cells))
	for _, c := range s.cells {
		zones = append(zones, can.Zone{CID: c.CID, Coord: c.Centroid})
	}
	table, err := can.New(zones, s.cellAdjacency())
	if err != nil {
		return err
	}
	s.dht = &dhtTier{table: table}
	return nil
}

// cellAdjacency lists, per CID in ascending order, the cells for which
// cellsAdjacent holds, derived from the actuator side: two cells are
// adjacent exactly when some corner pair is the same actuator or a pair in
// mutual radio range, so it suffices to enumerate qualifying actuator pairs
// — found through a spatial grid over actuator positions instead of cell
// pairs — and connect the cells cornered on them. Pairs reached through
// several corner combinations are deduplicated.
func (s *System) cellAdjacency() map[int][]int {
	// cellsOf[i] lists the cells cornered on actuator index i, in cell order.
	positions := make([]geo.Point, len(s.actuators))
	actIndex := make(map[world.NodeID]int, len(s.actuators))
	for i, a := range s.actuators {
		positions[i] = s.w.Position(a)
		actIndex[a] = i
	}
	cellsOf := make([][]*Cell, len(s.actuators))
	for _, c := range s.cells {
		for _, corner := range c.Corners {
			i := actIndex[corner]
			cellsOf[i] = append(cellsOf[i], c)
		}
	}

	adjSet := make([]map[int]bool, len(s.cells))
	connect := func(a, b *Cell) {
		if a.CID == b.CID {
			return
		}
		if adjSet[a.CID] == nil {
			adjSet[a.CID] = make(map[int]bool, 8)
		}
		if adjSet[b.CID] == nil {
			adjSet[b.CID] = make(map[int]bool, 8)
		}
		adjSet[a.CID][b.CID] = true
		adjSet[b.CID][a.CID] = true
	}

	// Shared corner: every pair of cells on the same actuator is adjacent.
	for i := range cellsOf {
		for x, a := range cellsOf[i] {
			for _, b := range cellsOf[i][x+1:] {
				connect(a, b)
			}
		}
	}

	// Mutual radio range: candidate partners come from a grid query with the
	// querying actuator's own range; the exact mutual check matches the
	// cellsAdjacent predicate bit for bit.
	region := geo.Rect{Min: positions[0], Max: positions[0]}
	maxRange := 0.0
	for i, p := range positions {
		if p.X < region.Min.X {
			region.Min.X = p.X
		}
		if p.Y < region.Min.Y {
			region.Min.Y = p.Y
		}
		if p.X > region.Max.X {
			region.Max.X = p.X
		}
		if p.Y > region.Max.Y {
			region.Max.Y = p.Y
		}
		if r := s.w.Node(s.actuators[i]).Range; r > maxRange {
			maxRange = r
		}
	}
	grid := geo.NewGrid(region, maxRange/2+1)
	for i, p := range positions {
		grid.Insert(i, p)
	}
	var nearby []int
	for i, p := range positions {
		ri := s.w.Node(s.actuators[i]).Range
		nearby = grid.Within(nearby[:0], p, ri, i)
		for _, j := range nearby {
			if j <= i {
				continue // each unordered actuator pair handled once
			}
			d := positions[i].Dist(positions[j])
			rj := s.w.Node(s.actuators[j]).Range
			if d > ri || d > rj {
				continue
			}
			for _, a := range cellsOf[i] {
				for _, b := range cellsOf[j] {
					connect(a, b)
				}
			}
		}
	}

	adjacency := make(map[int][]int, len(s.cells))
	for cid, set := range adjSet {
		if len(set) == 0 {
			continue
		}
		nbs := make([]int, 0, len(set))
		for nb := range set {
			nbs = append(nbs, nb)
		}
		sort.Ints(nbs)
		adjacency[cid] = nbs
	}
	return adjacency
}

// cellsAdjacent reports whether two cells share an actuator or have a pair
// of actuators in mutual radio range.
func cellsAdjacent(w *world.World, a, b *Cell) bool {
	for _, ca := range a.Corners {
		for _, cb := range b.Corners {
			if ca == cb {
				return true
			}
			d := w.Position(ca).Dist(w.Position(cb))
			if d <= w.Node(ca).Range && d <= w.Node(cb).Range {
				return true
			}
		}
	}
	return false
}

// dhtTier is the CAN state plus helpers bound to the system.
type dhtTier struct {
	table *can.Table
	// takenOver records the CAN zone takeovers of recovery merges: the CID
	// of a retired cell maps to the CID of its absorber at merge time. The
	// CAN table itself is immutable; lookups resolve through this layer.
	// Nil until the first merge, so recovery-disabled runs never touch it.
	takenOver map[int]int
}

// resolve follows the takeover chain from cid to the active cell currently
// answering for it. Chains are finite: a takeover target was active when
// recorded and retirement is permanent, so no cycle can form.
func (d *dhtTier) resolve(cid int) int {
	for {
		next, ok := d.takenOver[cid]
		if !ok {
			return cid
		}
		cid = next
	}
}

// remapCIDRoute resolves every hop of a CAN route through the zone
// takeovers and collapses the consecutive duplicates the resolution
// creates, so inter-cell forwarding only ever visits active cells. Without
// takeovers the route is returned untouched (the recovery-disabled path
// allocates nothing here).
func (s *System) remapCIDRoute(route []int) []int {
	if len(s.dht.takenOver) == 0 {
		return route
	}
	out := make([]int, 0, len(route))
	for _, cid := range route {
		cid = s.dht.resolve(cid)
		if n := len(out); n > 0 && out[n-1] == cid {
			continue
		}
		out = append(out, cid)
	}
	return out
}
