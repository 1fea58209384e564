// Package ddear implements the D-DEAR baseline (Shah et al., NEW2AN'06, as
// modeled in Section IV of the REFER paper): physically close sensors form
// clusters; the highest-energy sensor in each neighborhood becomes the
// cluster head; heads maintain multi-hop paths to their closest actuator
// and form the routing backbone.
//
// Members reach their head in at most two hops, so only the head-to-actuator
// paths lengthen as the network grows — D-DEAR sits between DaTree and REFER
// on most of the paper's metrics. Repair is head-initiated: when a backbone
// path breaks, the head floods to rebuild it and retransmits, which costs
// energy and delay but affects fewer nodes than DaTree's per-sensor repair.
package ddear

import (
	"sort"

	"refer/internal/energy"
	"refer/internal/manet"
	"refer/internal/world"
)

// maxRetransmits bounds per-packet head retransmissions after a backbone
// repair. Discovery and repair floods are bounded by manet.DefaultTTL. The
// paper runs each baseline at one setting (Section IV), so neither is a knob.
const maxRetransmits = 3

// System is a built D-DEAR network.
type System struct {
	w *world.World

	heads    []world.NodeID
	isHead   []bool                          // indexed by NodeID, fixed by Build
	headOf   map[world.NodeID]world.NodeID   // member → head
	relayTo  map[world.NodeID]world.NodeID   // member → relay (2-hop members)
	backbone map[world.NodeID][]world.NodeID // head → path to actuator
	// rebuilding coalesces concurrent backbone repairs per head.
	rebuilding map[world.NodeID][]func(ok bool)
	built      bool

	stats Stats
}

// Stats counts protocol activity.
type Stats struct {
	// Repairs counts backbone path rebuild floods.
	Repairs int
	// Retransmits counts head retransmissions.
	Retransmits int
}

// New creates an unbuilt D-DEAR system on w.
func New(w *world.World) *System {
	return &System{
		w:          w,
		headOf:     make(map[world.NodeID]world.NodeID),
		relayTo:    make(map[world.NodeID]world.NodeID),
		backbone:   make(map[world.NodeID][]world.NodeID),
		rebuilding: make(map[world.NodeID][]func(ok bool)),
	}
}

// Stats returns a snapshot of the protocol counters.
func (s *System) Stats() Stats { return s.stats }

// Build elects cluster heads (highest residual energy within a 2-hop
// neighborhood), attaches members, and discovers each head's multi-hop path
// to its nearest actuator.
func (s *System) Build() error {
	// Every sensor advertises itself to its 2-hop neighborhood: one local
	// broadcast each ("every node locally contacts neighbors within 2
	// hops", Section IV).
	var sensors []world.NodeID
	for _, n := range s.w.Nodes() {
		if n.Kind == world.Sensor {
			sensors = append(sensors, n.ID)
			s.w.Broadcast(n.ID, energy.Construction)
		}
	}
	// Head election: process by residual energy (ID tie-break); a sensor
	// becomes a head unless a head already exists within 2 hops.
	sorted := append([]world.NodeID(nil), sensors...)
	sort.Slice(sorted, func(i, j int) bool {
		fi := s.w.Node(sorted[i]).Meter.Fraction()
		fj := s.w.Node(sorted[j]).Meter.Fraction()
		if fi != fj {
			return fi > fj
		}
		return sorted[i] < sorted[j]
	})
	s.isHead = make([]bool, s.w.Len())
	for _, id := range sorted {
		if !s.w.Node(id).Alive() {
			continue
		}
		if s.headWithinTwoHops(id) {
			continue
		}
		s.isHead[id] = true
		s.heads = append(s.heads, id)
		// Head announcement broadcast.
		s.w.Broadcast(id, energy.Construction)
	}
	// Member attachment: direct neighbor head, else a head two hops away
	// through a relay member.
	for _, id := range sensors {
		if s.isHead[id] {
			s.headOf[id] = id
			continue
		}
		s.attach(id)
	}
	// Backbone: actuators flood one beacon each; every head records the
	// path of the first beacon it hears back to its actuator as its
	// multi-hop path to a close actuator. (Head-initiated full floods are
	// reserved for repair.) A sensor relays only its first beacon, so
	// following each relay's recorded sender from a head retraces exactly
	// the path that beacon took.
	heardFrom := make(map[world.NodeID]world.NodeID, len(sensors))
	for _, n := range s.w.Nodes() {
		if n.Kind != world.Actuator {
			continue
		}
		s.w.Flood(n.ID, manet.DefaultTTL, energy.Construction,
			func(at, from world.NodeID) bool {
				if s.w.Node(at).Kind == world.Actuator {
					return false
				}
				if _, heard := heardFrom[at]; heard {
					return false // relay only the first beacon heard
				}
				heardFrom[at] = from
				if s.isHead[at] {
					path := []world.NodeID{at}
					for cur := at; s.w.Node(cur).Kind == world.Sensor; {
						cur = heardFrom[cur]
						path = append(path, cur)
					}
					s.backbone[at] = path
				}
				return true
			}, nil)
	}
	s.built = true
	return nil
}

func (s *System) headWithinTwoHops(id world.NodeID) bool {
	for _, nb := range s.w.Neighbors(nil, id) {
		if s.isHead[nb] {
			return true
		}
		for _, nb2 := range s.w.Neighbors(nil, nb) {
			if s.isHead[nb2] {
				return true
			}
		}
	}
	return false
}

func (s *System) directHead(id world.NodeID) world.NodeID {
	best, bestDist := world.NoNode, 0.0
	pid := s.w.Position(id)
	for _, nb := range s.w.Neighbors(nil, id) {
		if !s.isHead[nb] {
			continue
		}
		d := pid.Dist(s.w.Position(nb))
		if best == world.NoNode || d < bestDist {
			best, bestDist = nb, d
		}
	}
	return best
}

func (s *System) twoHopHead(id world.NodeID) (head, relay world.NodeID) {
	head, relay = world.NoNode, world.NoNode
	bestDist := 0.0
	pid := s.w.Position(id)
	// The nested Neighbors queries borrow different nodes' cache slices
	// (id's and nb's), so the outer iteration is never invalidated.
	for _, nb := range s.w.Neighbors(nil, id) {
		pnb := s.w.Position(nb)
		dToNb := pid.Dist(pnb)
		for _, nb2 := range s.w.Neighbors(nil, nb) {
			if !s.isHead[nb2] || nb2 == id {
				continue
			}
			d := dToNb + pnb.Dist(s.w.Position(nb2))
			if head == world.NoNode || d < bestDist {
				head, relay, bestDist = nb2, nb, d
			}
		}
	}
	return head, relay
}

// Inject routes one packet: member → (relay →) head → backbone → actuator.
func (s *System) Inject(src world.NodeID, done func(ok bool)) {
	pkt := s.w.OpenPacket(src, done)
	if !s.built || !s.w.Node(src).Alive() {
		pkt.Close(false)
		return
	}
	if s.w.Node(src).Kind == world.Actuator {
		pkt.Close(true)
		return
	}
	head, ok := s.headOf[src]
	if !ok {
		// Orphan sensor: attach on demand to the nearest head (local
		// broadcast cost), mirroring cluster upkeep.
		s.reattach(src)
		if head, ok = s.headOf[src]; !ok {
			pkt.Close(false)
			return
		}
	}
	s.toHead(src, head, pkt, func(ok bool) {
		if ok {
			s.alongBackbone(head, maxRetransmits, pkt)
			return
		}
		// Mobility carried the member away from its head: re-attach to a
		// reachable head (local broadcast) and retry once.
		s.reattach(src)
		newHead, ok := s.headOf[src]
		if !ok || newHead == head {
			pkt.Close(false)
			return
		}
		s.toHead(src, newHead, pkt, func(ok bool) {
			if !ok {
				pkt.Close(false)
				return
			}
			s.alongBackbone(newHead, maxRetransmits, pkt)
		})
	})
}

// reattach re-runs member attachment for one sensor against the current
// topology, paying the local advertisement broadcast.
func (s *System) reattach(src world.NodeID) {
	s.w.Broadcast(src, energy.Communication)
	delete(s.headOf, src)
	delete(s.relayTo, src)
	s.attach(src)
}

// attach records a non-head sensor's cluster: a direct neighbor head, else a
// head two hops away through a relay member, else none.
func (s *System) attach(id world.NodeID) {
	if h := s.directHead(id); h != world.NoNode {
		s.headOf[id] = h
		return
	}
	if h, relay := s.twoHopHead(id); h != world.NoNode {
		s.headOf[id], s.relayTo[id] = h, relay
	}
}

// toHead delivers the packet from a member to its cluster head (≤ 2 hops).
func (s *System) toHead(src, head world.NodeID, pkt world.Packet, done func(ok bool)) {
	if src == head {
		done(true)
		return
	}
	forward := func(via world.NodeID) {
		s.w.Send(src, via, energy.Communication, func(o world.Outcome) {
			if o != world.Delivered {
				done(false)
				return
			}
			pkt.Hop(s.w.Now(), int32(src), int32(via), 0)
			if via == head {
				done(true)
				return
			}
			s.w.Send(via, head, energy.Communication, func(o world.Outcome) {
				if o == world.Delivered {
					pkt.Hop(s.w.Now(), int32(via), int32(head), 0)
				}
				done(o == world.Delivered)
			})
		})
	}
	if relay, ok := s.relayTo[src]; ok {
		forward(relay)
		return
	}
	forward(head)
}

// alongBackbone forwards from a head along its stored multi-hop path; on a
// break, the head floods to rebuild the path and retransmits.
func (s *System) alongBackbone(head world.NodeID, budget int, pkt world.Packet) {
	path := s.backbone[head]
	if len(path) == 0 {
		s.rebuildAndRetry(head, budget, pkt)
		return
	}
	manet.SendAlongPathHops(s.w, path, energy.Communication,
		func(i int) { pkt.Hop(s.w.Now(), int32(path[i]), int32(path[i+1]), 0) },
		func() { pkt.Close(true) },
		func(int) { s.rebuildAndRetry(head, budget, pkt) })
}

func (s *System) rebuildAndRetry(head world.NodeID, budget int, pkt world.Packet) {
	if budget <= 0 || !s.w.Node(head).Alive() {
		pkt.Close(false)
		return
	}
	cont := func(rebuilt bool) {
		if !rebuilt {
			pkt.Close(false)
			return
		}
		s.stats.Retransmits++
		s.alongBackbone(head, budget-1, pkt)
	}
	if waiting, inFlight := s.rebuilding[head]; inFlight {
		s.rebuilding[head] = append(waiting, cont)
		return
	}
	s.rebuilding[head] = []func(bool){cont}
	s.stats.Repairs++
	manet.DiscoverNearest(s.w, head, manet.DefaultTTL, energy.Communication,
		func(id world.NodeID) bool { return s.w.Node(id).Kind == world.Actuator },
		func(path []world.NodeID) {
			if path != nil {
				s.backbone[head] = path
			}
			waiting := s.rebuilding[head]
			delete(s.rebuilding, head)
			for _, w := range waiting {
				w(path != nil)
			}
		})
}
