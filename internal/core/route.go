package core

import (
	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/world"
)

// flight is one packet in the overlay: everything its forwarding decisions
// carry from hop to hop, held in one record instead of a chain of closures.
// Records are pooled on the System and their radio callbacks are method
// values bound once at minting, so a relay decision — corner ranking, route
// lookup, shuffle, failover, the two-stage physical link — allocates
// nothing. A flight owns itself from Inject/SendTo until finish, which
// recycles it before the packet is closed and the caller's done runs.
//
// One state machine serves both sinks: dstCell == nil routes to any alive
// corner of the cell, re-ranked at every relay (Inject); otherwise
// corners[0] is the single KID being routed to (SendTo).
type flight struct {
	s *System
	p world.Packet

	cell   *Cell
	at     world.NodeID // relay currently holding the packet
	budget int          // overlay hops left in this cell

	corners [3]kautz.ID // sink KIDs in trial order; corners[ci:nc] remain
	nc, ci  int
	routes  []kautz.Route // flight-owned copy of the route set toward corners[ci], shuffled in place
	idx     int           // route being tried
	next    world.NodeID  // its successor, the overlay hop on the air
	relay   world.NodeID  // physical relay of a two-stage overlay link
	stage   linkStage

	// SendTo only: the destination, which for another cell is reached by an
	// intra-cell leg to an exit corner, the CAN tier, and a second leg.
	dstCell *Cell
	dstKID  kautz.ID

	onSend    func(world.Outcome)
	onCrossed func(ok bool, entry world.NodeID)
}

// linkStage says which transmission a flight's pending Send is.
type linkStage uint8

const (
	attaching linkStage = iota // plain sensor → overlay entry
	relaying                   // overlay hop, first half via a physical relay
	linking                    // overlay hop, direct or second half
)

// Inject routes one sensed-data packet from src to its nearby actuator —
// the evaluation's traffic pattern. done fires exactly once: at the
// actuator's reception time with ok=true, or when the packet is abandoned.
func (s *System) Inject(src world.NodeID, done func(ok bool)) {
	s.newFlight(src, done).launch(src, s.built && s.w.Node(src).Alive())
}

// SendTo routes a packet from src to an arbitrary REFER address, using the
// DHT tier when the destination lies in another cell. done fires once.
func (s *System) SendTo(src world.NodeID, dst Address, done func(ok bool)) {
	f := s.newFlight(src, done)
	dstCell, ok := s.cellByCID[dst.CID]
	if ok {
		_, ok = dstCell.NodeByKID[dst.KID]
	}
	f.dstCell, f.dstKID = dstCell, dst.KID
	f.launch(src, ok && s.built && s.w.Node(src).Alive())
}

// newFlight takes a flight from the free list (or mints one) and opens the
// packet on the world.
func (s *System) newFlight(src world.NodeID, done func(ok bool)) *flight {
	var f *flight
	if n := len(s.flightFree); n > 0 {
		f, s.flightFree = s.flightFree[n-1], s.flightFree[:n-1]
	} else {
		f = &flight{s: s}
		f.onSend, f.onCrossed = f.sent, f.crossed
	}
	f.p, f.budget = s.w.OpenPacket(src, done), hopBudget
	return f
}

// finish closes the packet. The flight returns to the free list first:
// done may inject again.
func (f *flight) finish(ok bool) {
	p := f.p
	f.p, f.cell, f.dstCell = world.Packet{}, nil, nil
	f.s.flightFree = append(f.s.flightFree, f)
	p.Close(ok)
}

// launch finds the packet's overlay entry and, when src is a plain sensor,
// pays the one attachment hop to it.
func (f *flight) launch(src world.NodeID, ok bool) {
	if ok {
		f.at, f.cell = f.s.entryPoint(src)
		ok = f.at != world.NoNode
	}
	switch {
	case !ok:
		f.finish(false)
	case f.at == src:
		f.enter()
	default:
		f.at, f.next, f.stage = src, f.at, attaching
		f.s.w.Send(src, f.next, energy.Communication, f.onSend)
	}
}

// enter starts overlay routing at the entry node. A SendTo flight fixes its
// sink here: the destination KID, or for another cell the Kautz-nearest
// corner actuator to leave through.
func (f *flight) enter() {
	if f.dstCell != nil {
		f.corners[0], f.nc = f.dstKID, 1
		if f.cell.CID != f.dstCell.CID {
			f.s.stats.InterCell++
			f.corners[0] = f.s.nearestCornerByKautz(f.cell, f.cell.kidOfNode[f.at])
		}
	}
	f.step()
}

// step is one relay's decision (Section III-C-2), purely local: has the
// packet arrived, and if not, which sinks to try in which order. For "a
// nearby actuator" traffic all three corners are valid sinks, ranked by Kautz
// distance from the relay's own KID.
func (f *flight) step() {
	atKID, ok := f.cell.kidOfNode[f.at]
	switch {
	case !ok:
		f.finish(false)
	case f.dstCell == nil && f.cell.IsActuatorKID(atKID), f.dstCell != nil && atKID == f.corners[0]:
		f.arrive()
	case f.budget <= 0:
		f.finish(false)
	default:
		if f.dstCell == nil {
			f.corners, f.nc = f.s.cornersByKautzDistance(f.cell, atKID)
		}
		f.ci = 0
		f.loadRoutes()
	}
}

// arrive ends an intra-cell leg at its sink. The exit corner of an
// inter-cell SendTo hands the packet to the CAN tier; crossed resumes it in
// the destination cell.
func (f *flight) arrive() {
	if f.dstCell == nil || f.cell.CID == f.dstCell.CID {
		f.finish(true)
		return
	}
	f.s.routeInterCell(f.cell, f.cell.NodeByKID[f.corners[0]], f.dstCell, f.p, f.onCrossed)
}

func (f *flight) crossed(ok bool, entry world.NodeID) {
	if !ok {
		f.finish(false)
		return
	}
	f.cell, f.at, f.budget = f.dstCell, entry, hopBudget
	f.corners[0] = f.dstKID
	f.step()
}

// loadRoutes fetches the Theorem 3.8 route set toward the next untried sink
// into the flight's own buffer — the table's entry is shared and read-only —
// and randomizes among equal-length routes (the paper's tie-break rule). The
// relay's KID is re-read for every sink: maintenance can demote the relay
// while the packet waits on an ack timeout.
func (f *flight) loadRoutes() {
	for ; f.ci < f.nc; f.ci++ {
		view, ok := f.s.routesFor(f.cell.kidOfNode[f.at], f.corners[f.ci])
		if !ok {
			continue
		}
		f.routes = append(f.routes[:0], view...)
		f.s.shuffleEqualLength(f.routes)
		f.idx = 0
		f.tryNext()
		return
	}
	f.finish(false)
}

// tryNext attempts the ranked successors from routes[idx] on. A successor
// that maintenance removed or that is known dead is skipped with no radio
// cost. When every (permitted) disjoint path toward this sink has failed the
// relay falls back to the next sink — unless failover is ablated, which
// leaves the greedy shortest successor or nothing.
func (f *flight) tryNext() {
	s := f.s
	for ; f.idx < len(f.routes) && !(s.cfg.DisableFailover && f.idx > 0); f.idx++ {
		next, ok := f.cell.NodeByKID[f.routes[f.idx].Successor]
		if ok && s.w.Node(next).Alive() {
			f.sendLink(next)
			return
		}
		s.countFailoverSwitch(f.p, f.at, f.routes, f.idx)
	}
	if s.cfg.DisableFailover {
		f.finish(false)
		return
	}
	f.ci++
	f.loadRoutes()
}

// sendLink transmits to the overlay neighbor next: directly when in range,
// otherwise over a one-relay physical path chosen for lowest delay ("either
// a multi-hop path or direct path", Section III-C-2).
func (f *flight) sendLink(next world.NodeID) {
	w := f.s.w
	f.next, f.stage = next, linking
	if w.Distance(f.at, next) > w.LinkRange(f.at, next) {
		if relay := f.s.bestRelay(f.cell, f.at, next); relay != world.NoNode {
			f.relay, f.stage = relay, relaying
			w.Send(f.at, relay, energy.Communication, f.onSend)
			return
		}
		// The link is physically broken: the direct attempt reports failure
		// after the MAC timeout the sender pays trying.
	}
	w.Send(f.at, next, energy.Communication, f.onSend)
}

// sent is the completion of whichever transmission the flight had pending.
func (f *flight) sent(o world.Outcome) {
	s, ok := f.s, o == world.Delivered
	switch {
	case f.stage == attaching && !ok:
		f.finish(false)
	case f.stage == attaching:
		f.p.Hop(s.w.Now(), int32(f.at), int32(f.next), 0)
		f.at = f.next
		f.enter()
	case f.stage == relaying && ok:
		f.stage = linking
		s.w.Send(f.relay, f.next, energy.Communication, f.onSend)
	case ok:
		f.p.Hop(s.w.Now(), int32(f.at), int32(f.next), int8(f.routes[f.idx].Class))
		f.at = f.next
		f.budget--
		f.step()
	default:
		// The relay switches to the next disjoint path without notifying
		// the source.
		s.countFailoverSwitch(f.p, f.at, f.routes, f.idx)
		f.idx++
		f.tryNext()
	}
}

// cornersByKautzDistance returns the alive corner KIDs ordered by Kautz
// distance from fromKID (ties by KID), as a by-value array plus count that
// the flight stores: the ranking is redone at every relay of every packet.
func (s *System) cornersByKautzDistance(c *Cell, fromKID kautz.ID) ([3]kautz.ID, int) {
	var corners [3]kautz.ID
	n := 0
	for _, corner := range c.Corners {
		if s.w.Node(corner).Alive() {
			corners[n] = c.kidOfNode[corner]
			n++
		}
	}
	// Insertion sort on ≤ 3 entries; the comparator is total (ties by KID),
	// so the order matches the previous sort.Slice exactly.
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			dp, dj := kautz.Distance(fromKID, corners[j-1]), kautz.Distance(fromKID, corners[j])
			if dp < dj || (dp == dj && corners[j-1] < corners[j]) {
				break
			}
			corners[j-1], corners[j] = corners[j], corners[j-1]
		}
	}
	return corners, n
}

// routesFor returns the Theorem 3.8 route set for the ordered pair: the
// shared precomputed table's own read-only entry. The table holds every
// ordered pair of the cell graph, so ok is false only when u is no KID at
// all — a relay demoted by maintenance — and no route exists.
func (s *System) routesFor(u, v kautz.ID) ([]kautz.Route, bool) {
	routes, ok := s.routes.Routes(u, v)
	if ok {
		s.stats.RouteCacheHits++
	}
	return routes, ok
}

// countFailoverSwitch records one Theorem 3.8 failover decision: the relay
// at abandons routes[idx] and moves to routes[idx+1]. A switch is counted
// exactly once per abandoned path — whether the failure was known locally
// (successor dead or unassigned) or discovered by a failed transmission —
// and only when an alternate disjoint path actually remains to switch to.
// The decision is also emitted as a trace event when the run is traced.
func (s *System) countFailoverSwitch(p world.Packet, at world.NodeID, routes []kautz.Route, idx int) {
	if !s.cfg.DisableFailover && idx+1 < len(routes) {
		s.stats.FailoverSwitches++
		p.FailoverSwitch(s.w.Now(), int32(at), int8(routes[idx].Class))
	}
}

// entryPoint returns the overlay node a packet from src enters the overlay
// at, and that node's cell. If src is itself an overlay member it is its
// own entry. Otherwise the nearest alive overlay member within radio range
// is chosen.
func (s *System) entryPoint(src world.NodeID) (world.NodeID, *Cell) {
	// memberCell maps every overlay member — actuator or sensor — to its
	// first cell in s.cells order.
	if c := s.memberCell[src]; c != nil {
		return src, c
	}
	// Plain sensor: attach to the nearest alive overlay member in range.
	// Candidates come from the world's cached alive-neighbor set — the
	// packet's own radio neighborhood. Ties on distance break on the smaller
	// node ID; a member sitting in several cells (a shared-corner actuator)
	// resolves to its first cell in s.cells order.
	best := world.NoNode
	var bestCell *Cell
	bestDist := 0.0
	p := s.w.Position(src)
	for _, id := range s.w.AliveNeighbors(nil, src) {
		d := p.Dist(s.w.Position(id))
		if best != world.NoNode && (d > bestDist || (d == bestDist && id > best)) {
			continue
		}
		cell := s.memberCell[id]
		if cell == nil {
			continue // in range and alive, but not an overlay member
		}
		best, bestCell, bestDist = id, cell, d
	}
	return best, bestCell
}

// nearestCornerByKautz returns the corner KID with the smallest Kautz
// distance from fromKID (the cheapest overlay exit).
func (s *System) nearestCornerByKautz(c *Cell, fromKID kautz.ID) kautz.ID {
	best := c.kidOfNode[c.Corners[0]]
	bestDist := kautz.Distance(fromKID, best)
	for _, corner := range c.Corners[1:] {
		kid := c.kidOfNode[corner]
		if d := kautz.Distance(fromKID, kid); d < bestDist {
			best, bestDist = kid, d
		}
	}
	return best
}

// shuffleEqualLength randomly permutes runs of routes with equal concrete
// path length, preserving the ascending length order.
func (s *System) shuffleEqualLength(routes []kautz.Route) {
	i := 0
	for i < len(routes) {
		j := i + 1
		for j < len(routes) && routes[j].Len() == routes[i].Len() {
			j++
		}
		if j-i > 1 {
			s.w.Rand().Shuffle(j-i, func(a, b int) {
				routes[i+a], routes[i+b] = routes[i+b], routes[i+a]
			})
		}
		i = j
	}
}

// bestRelay picks an alive cell node in range of both endpoints, minimizing
// the two-hop distance. Candidates come from map iteration, so equal
// distances break on the smaller node ID to keep seeded replay exact.
func (s *System) bestRelay(c *Cell, from, to world.NodeID) world.NodeID {
	pf, pt := s.w.Position(from), s.w.Position(to)
	best := world.NoNode
	bestDist := 0.0
	for id := range c.kidOfNode {
		if d, ok := s.relayVia(id, from, to, pf, pt); ok && (best == world.NoNode || d < bestDist || (d == bestDist && id < best)) {
			best, bestDist = id, d
		}
	}
	for id := range c.members {
		if d, ok := s.relayVia(id, from, to, pf, pt); ok && (best == world.NoNode || d < bestDist || (d == bestDist && id < best)) {
			best, bestDist = id, d
		}
	}
	s.stats.RelayScans += uint64(len(c.kidOfNode) + len(c.members))
	return best
}

// relayVia returns the two-hop distance from → id → to (pf and pt are the
// endpoints' positions), or ok=false when id is an endpoint, dead, or beyond
// either leg's link range.
func (s *System) relayVia(id, from, to world.NodeID, pf, pt geo.Point) (float64, bool) {
	if id == from || id == to || !s.w.Node(id).Alive() {
		return 0, false
	}
	p := s.w.Position(id)
	df := p.Dist(pf)
	if df > s.w.LinkRange(from, id) {
		return 0, false
	}
	dt := p.Dist(pt)
	if dt > s.w.LinkRange(id, to) {
		return 0, false
	}
	return df + dt, true
}

// routeInterCell forwards a packet between cells along the CAN route
// (Section III-B-3): each hop is an actuator-to-actuator transmission
// toward the neighbor cell whose CID is closest to the destination.
// done receives the actuator the packet arrived at inside dstCell.
func (s *System) routeInterCell(fromCell *Cell, at world.NodeID, dstCell *Cell, p world.Packet, done func(ok bool, entry world.NodeID)) {
	cidRoute, _ := s.dht.table.Route(fromCell.CID, dstCell.CID)
	if cidRoute == nil {
		done(false, world.NoNode)
		return
	}
	// Intermediate hops may name cells retired by a recovery merge; the zone
	// takeovers resolve them to their absorbers (endpoints are active cells
	// and resolve to themselves).
	cidRoute = s.remapCIDRoute(cidRoute)
	s.hopCells(at, cidRoute, 0, p, done)
}

// hopCells walks the CID route, hopping actuators between consecutive cells.
func (s *System) hopCells(at world.NodeID, cidRoute []int, idx int, p world.Packet, done func(ok bool, entry world.NodeID)) {
	if idx == len(cidRoute)-1 {
		done(true, at)
		return
	}
	nextCell := s.cellByCID[cidRoute[idx+1]]
	// If the current actuator also sits in the next cell, no radio hop is
	// needed (shared-corner adjacency).
	if _, ok := nextCell.kidOfNode[at]; ok {
		s.hopCells(at, cidRoute, idx+1, p, done)
		return
	}
	// Otherwise transmit to the nearest alive corner of the next cell.
	target := world.NoNode
	bestDist := 0.0
	pos := s.w.Position(at)
	for _, corner := range nextCell.Corners {
		if !s.w.Node(corner).Alive() {
			continue
		}
		d := pos.Dist(s.w.Position(corner))
		if target == world.NoNode || d < bestDist {
			target, bestDist = corner, d
		}
	}
	if target == world.NoNode {
		done(false, world.NoNode)
		return
	}
	s.w.Send(at, target, energy.Communication, func(o world.Outcome) {
		if o != world.Delivered {
			done(false, world.NoNode)
			return
		}
		p.Hop(s.w.Now(), int32(at), int32(target), 0)
		s.hopCells(target, cidRoute, idx+1, p, done)
	})
}
