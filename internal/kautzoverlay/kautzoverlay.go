// Package kautzoverlay implements the Kautz-overlay baseline (Zuo et al.,
// ICOIN'08, as modeled in Section IV of the REFER paper): a Kautz graph
// built on the application layer of a MANET with no topology consistency.
//
// Overlay IDs are assigned without regard to physical position, so overlay
// neighbors are usually physically distant and every overlay arc is a
// multi-hop MANET path discovered by flooding — the dominant construction
// cost the paper's Figure 10 shows. Routing uses REFER's Theorem 3.8
// protocol on the overlay (the paper equalizes the routing rule "to have a
// fair comparison"), but every overlay hop rides a stored physical path;
// when one breaks, the node floods to re-establish it.
package kautzoverlay

import (
	"fmt"
	"sort"

	"refer/internal/energy"
	"refer/internal/kautz"
	"refer/internal/manet"
	"refer/internal/world"
)

// The evaluation runs the overlay at one setting (Section IV), so these are
// constants, not knobs; path-discovery floods are bounded by manet.DefaultTTL.
const (
	// degree is the Kautz degree d of the overlay graph.
	degree = 2
	// memberSpacing is the minimum spacing between elected overlay members
	// in meters; the overlay is built over spread-out super-nodes (the
	// ICOIN'08 scheme elects cluster heads), not every sensor.
	memberSpacing = 100.0
)

// System is a built Kautz-overlay network.
type System struct {
	w *world.World

	graph    *kautz.Graph
	routes   *kautz.RouteTable // shared precomputed Theorem 3.8 routes; nil = compute directly
	kidOf    map[world.NodeID]kautz.ID
	nodeOf   map[kautz.ID]world.NodeID
	links    map[linkKey][]world.NodeID // physical path per overlay arc
	diameter int
	// hopBudget bounds overlay hops per packet (loop protection): 3k+4.
	hopBudget int
	built     bool
	// rebuilding coalesces concurrent rebuilds of the same overlay link.
	rebuilding map[linkKey][]func(ok bool)

	stats Stats
}

type linkKey struct {
	from kautz.ID
	to   kautz.ID
}

// Stats counts protocol activity.
type Stats struct {
	// PathRebuilds counts overlay-link re-discovery floods.
	PathRebuilds int
	// FailoverSwitches counts Theorem 3.8 alternate-successor decisions.
	FailoverSwitches int
	// RouteCacheHits and RouteCacheMisses count forwarding decisions whose
	// Theorem 3.8 route set was served from the precomputed route table vs
	// computed directly from the IDs.
	RouteCacheHits   int
	RouteCacheMisses int
}

// New creates an unbuilt overlay on w.
func New(w *world.World) *System {
	return &System{
		w:          w,
		kidOf:      make(map[world.NodeID]kautz.ID),
		nodeOf:     make(map[kautz.ID]world.NodeID),
		links:      make(map[linkKey][]world.NodeID),
		rebuilding: make(map[linkKey][]func(ok bool)),
	}
}

// Stats returns a snapshot of the protocol counters.
func (s *System) Stats() Stats { return s.stats }

// Graph returns the overlay's Kautz graph.
func (s *System) Graph() *kautz.Graph { return s.graph }

// KIDOf returns a node's overlay ID.
func (s *System) KIDOf(id world.NodeID) (kautz.ID, bool) {
	kid, ok := s.kidOf[id]
	return kid, ok
}

// Build chooses the largest complete K(d,k) that fits the population,
// assigns overlay IDs (actuators first, then sensors in ID order — i.e.
// with no topology awareness), and flood-discovers a physical path for
// every overlay arc.
func (s *System) Build() error {
	var actuators, sensors []world.NodeID
	for _, n := range s.w.Nodes() {
		if n.Kind == world.Actuator {
			actuators = append(actuators, n.ID)
		} else {
			sensors = append(sensors, n.ID)
		}
	}
	// Member election (the ICOIN'08 clustering step): actuators plus
	// sensors spaced at least memberSpacing apart, greedily by node ID.
	// Each elected member announces itself with one broadcast.
	members := append([]world.NodeID(nil), actuators...)
	for _, id := range sensors {
		p := s.w.Position(id)
		spaced := true
		for _, m := range members {
			if p.Dist(s.w.Position(m)) < memberSpacing {
				spaced = false
				break
			}
		}
		if spaced {
			members = append(members, id)
			s.w.Broadcast(id, energy.Construction)
		}
	}
	total := len(members)
	k := 1
	for kautz.NumNodes(degree, k+1) <= total {
		k++
	}
	if kautz.NumNodes(degree, k) > total {
		return fmt.Errorf("kautzoverlay: %d members cannot host K(%d,%d)", total, degree, k)
	}
	g, err := kautz.New(degree, k)
	if err != nil {
		return fmt.Errorf("kautzoverlay: %w", err)
	}
	s.graph = g
	s.diameter = k
	// Share the process-wide precomputed route table when the chosen K(d,k)
	// is small enough to tabulate; larger overlays fall back to the direct
	// per-decision computation.
	if table, err := kautz.TableFor(degree, k); err == nil {
		s.routes = table
	}
	s.hopBudget = 3*k + 4

	// ID assignment ignores physical topology (the defining flaw): KIDs go
	// to the first N members in node-ID order, blind to position.
	members = members[:g.N()]
	kids := g.Nodes()
	for i, id := range members {
		s.kidOf[id] = kids[i]
		s.nodeOf[kids[i]] = id
	}

	// Every overlay node floods to discover a physical path to each of its
	// d overlay successors — the expensive construction step.
	sortedKIDs := append([]kautz.ID(nil), kids...)
	sort.Slice(sortedKIDs, func(i, j int) bool { return sortedKIDs[i] < sortedKIDs[j] })
	for _, kid := range sortedKIDs {
		from := s.nodeOf[kid]
		for _, succ := range g.Successors(kid) {
			to := s.nodeOf[succ]
			key := linkKey{from: kid, to: succ}
			manet.DiscoverRoute(s.w, from, to, manet.DefaultTTL, energy.Construction,
				func(path []world.NodeID) {
					if path != nil {
						s.links[key] = path
					}
				})
		}
	}
	s.built = true
	return nil
}

// Inject routes one packet from src to the overlay ID of its physically
// nearest actuator using the Theorem 3.8 protocol over multi-hop links.
func (s *System) Inject(src world.NodeID, done func(ok bool)) {
	p := s.w.OpenPacket(src, done)
	if !s.built || !s.w.Node(src).Alive() {
		p.Close(false)
		return
	}
	dstActuator := s.w.NearestActuator(src)
	if dstActuator == world.NoNode {
		p.Close(false)
		return
	}
	dstKID, ok := s.kidOf[dstActuator]
	if !ok {
		p.Close(false)
		return
	}
	entry := src
	if _, member := s.kidOf[src]; !member {
		entry = s.nearestMember(src)
		if entry == world.NoNode {
			p.Close(false)
			return
		}
		s.w.Send(src, entry, energy.Communication, func(o world.Outcome) {
			if o != world.Delivered {
				p.Close(false)
				return
			}
			p.Hop(s.w.Now(), int32(src), int32(entry), 0)
			s.route(entry, dstKID, s.hopBudget, p)
		})
		return
	}
	s.route(entry, dstKID, s.hopBudget, p)
}

// nearestMember returns the nearest alive overlay member in radio range.
// Candidates come from the world's cached alive-neighbor set rather than a
// scan over the whole kidOf map; distance ties break on the smaller node ID
// to keep seeded replay exact.
func (s *System) nearestMember(src world.NodeID) world.NodeID {
	best, bestDist := world.NoNode, 0.0
	p := s.w.Position(src)
	for _, id := range s.w.AliveNeighbors(nil, src) {
		if _, member := s.kidOf[id]; !member {
			continue
		}
		d := p.Dist(s.w.Position(id))
		if best == world.NoNode || d < bestDist || (d == bestDist && id < best) {
			best, bestDist = id, d
		}
	}
	return best
}

// route performs one overlay routing step at node at toward dstKID.
func (s *System) route(at world.NodeID, dstKID kautz.ID, budget int, p world.Packet) {
	atKID, ok := s.kidOf[at]
	if !ok {
		p.Close(false)
		return
	}
	if atKID == dstKID {
		p.Close(true)
		return
	}
	if budget <= 0 {
		p.Close(false)
		return
	}
	routes, err := s.routesFor(atKID, dstKID)
	if err != nil {
		p.Close(false)
		return
	}
	s.tryRoutes(at, dstKID, routes, 0, budget, p)
}

// routesFor returns the Theorem 3.8 route set for the ordered pair: the
// shared precomputed table's own entry, which is read-only (the overlay only
// walks it), with a fallback to the direct computation when the overlay
// graph was too large to tabulate.
func (s *System) routesFor(u, v kautz.ID) ([]kautz.Route, error) {
	if s.routes != nil {
		if routes, ok := s.routes.Routes(u, v); ok {
			s.stats.RouteCacheHits++
			return routes, nil
		}
	}
	s.stats.RouteCacheMisses++
	return kautz.Routes(degree, u, v)
}

// countFailoverSwitch records one Theorem 3.8 failover decision, counted
// exactly once per abandoned path and only when an alternate disjoint path
// actually remains — the same invariant REFER's intra-cell router keeps.
// The decision is also emitted as a trace event when the run is traced.
func (s *System) countFailoverSwitch(p world.Packet, at world.NodeID, routes []kautz.Route, idx int) {
	if idx+1 < len(routes) {
		s.stats.FailoverSwitches++
		p.FailoverSwitch(s.w.Now(), int32(at), int8(routes[idx].Class))
	}
}

// tryRoutes walks the ranked Theorem 3.8 successors; each overlay hop rides
// the stored physical path, rebuilt by flooding when broken.
func (s *System) tryRoutes(at world.NodeID, dstKID kautz.ID, routes []kautz.Route, idx, budget int, p world.Packet) {
	if idx >= len(routes) {
		p.Close(false)
		return
	}
	atKID := s.kidOf[at]
	succ := routes[idx].Successor
	next, ok := s.nodeOf[succ]
	if !ok || !s.w.Node(next).Alive() {
		s.countFailoverSwitch(p, at, routes, idx)
		s.tryRoutes(at, dstKID, routes, idx+1, budget, p)
		return
	}
	s.overlayHop(atKID, succ, at, next, true, func(delivered bool) {
		if delivered {
			p.Hop(s.w.Now(), int32(at), int32(next), int8(routes[idx].Class))
			s.route(next, dstKID, budget-1, p)
			return
		}
		s.countFailoverSwitch(p, at, routes, idx)
		s.tryRoutes(at, dstKID, routes, idx+1, budget, p)
	})
}

// overlayHop sends across one overlay arc along its stored physical path;
// on a break it floods once to re-establish the path and retries.
func (s *System) overlayHop(fromKID, toKID kautz.ID, from, to world.NodeID, mayRebuild bool, done func(ok bool)) {
	key := linkKey{from: fromKID, to: toKID}
	rebuildAndRetry := func() {
		if !mayRebuild {
			done(false)
			return
		}
		s.rebuildLink(key, from, to, func(ok bool) {
			if !ok {
				done(false)
				return
			}
			s.overlayHop(fromKID, toKID, from, to, false, done)
		})
	}
	path := s.links[key]
	if len(path) == 0 || !manet.PathValid(s.w, path) {
		rebuildAndRetry()
		return
	}
	manet.SendAlongPathHops(s.w, path, energy.Communication, nil,
		func() { done(true) },
		func(int) { rebuildAndRetry() })
}

// rebuildLink floods to re-discover the physical path of an overlay arc
// ("it uses broadcasting to re-establish a path to the node"). Concurrent
// packets crossing the same broken arc share one discovery flood.
func (s *System) rebuildLink(key linkKey, from, to world.NodeID, done func(ok bool)) {
	if !s.w.Node(from).Alive() {
		done(false)
		return
	}
	if waiting, inFlight := s.rebuilding[key]; inFlight {
		s.rebuilding[key] = append(waiting, done)
		return
	}
	s.rebuilding[key] = []func(bool){done}
	s.stats.PathRebuilds++
	manet.DiscoverRoute(s.w, from, to, manet.DefaultTTL, energy.Communication,
		func(path []world.NodeID) {
			if path != nil {
				s.links[key] = path
			}
			waiting := s.rebuilding[key]
			delete(s.rebuilding, key)
			for _, w := range waiting {
				w(path != nil)
			}
		})
}
