// Package datree implements the DaTree baseline (Melodia et al.,
// MobiCom'05, as modeled in Section IV of the REFER paper): every actuator
// roots a tree over its physically close sensors; sensors forward sensed
// events up the tree to the root.
//
// Construction is cheap — each actuator floods one tree-build message and
// every sensor adopts the first forwarder it hears as its parent ("it
// consumes the least energy in overlay construction"). The weakness is
// repair: when a sensor's link to its parent breaks, it must broadcast
// toward the root to re-attach and the message is retransmitted from the
// source, so faults and mobility cost both delay and energy.
package datree

import (
	"refer/internal/energy"
	"refer/internal/manet"
	"refer/internal/world"
)

// maxRetransmits bounds per-packet source retransmissions after repair.
// Construction and repair floods are bounded by manet.DefaultTTL. The paper
// runs each baseline at one setting (Section IV), so neither is a knob.
const maxRetransmits = 3

// System is a built DaTree network.
type System struct {
	w *world.World

	parent map[world.NodeID]world.NodeID // tree edges (sensor → parent)
	root   map[world.NodeID]world.NodeID // sensor → its tree's actuator
	// repairing coalesces concurrent repairs at the same stuck node: one
	// flood fixes the tree for every packet waiting on it.
	repairing map[world.NodeID][]func(ok bool)
	built     bool

	stats Stats
}

// Stats counts protocol activity.
type Stats struct {
	// Repairs counts parent re-establishment floods.
	Repairs int
	// Retransmits counts source retransmissions.
	Retransmits int
}

// New creates an unbuilt DaTree system on w.
func New(w *world.World) *System {
	return &System{
		w:         w,
		parent:    make(map[world.NodeID]world.NodeID),
		root:      make(map[world.NodeID]world.NodeID),
		repairing: make(map[world.NodeID][]func(ok bool)),
	}
}

// Stats returns a snapshot of the protocol counters.
func (s *System) Stats() Stats { return s.stats }

// Build floods one tree-construction message per actuator; each sensor
// adopts the first forwarder as its parent and joins only that tree. After
// the floods, parents are refined to prefer strong links (the tree-reply
// phase selects forwarders by signal strength, like repair does), which
// keeps the initial tree from disintegrating within seconds of mobility.
func (s *System) Build() error {
	pending := 0
	for _, n := range s.w.Nodes() {
		if n.Kind == world.Actuator {
			pending++
		}
	}
	for _, n := range s.w.Nodes() {
		if n.Kind != world.Actuator {
			continue
		}
		rootID := n.ID
		s.w.Flood(rootID, manet.DefaultTTL, energy.Construction,
			func(at, from world.NodeID) bool {
				if s.w.Node(at).Kind == world.Actuator {
					return false // other actuators do not join
				}
				if _, joined := s.parent[at]; joined {
					return false // "each sensor belongs to only one tree"
				}
				s.parent[at] = from
				s.root[at] = rootID
				return true
			}, func() {
				pending--
				if pending == 0 {
					s.refineTrees() // all floods quiesced
				}
			})
	}
	s.built = true
	return nil
}

// refineTrees re-points each tree's parents along strong links: a
// manet.Tree from every root that has members, over its members, keeping
// the flood parent for members the margin graph cannot reach.
func (s *System) refineTrees() {
	rooted := make(map[world.NodeID]bool)
	for _, root := range s.root {
		rooted[root] = true
	}
	for _, n := range s.w.Nodes() {
		root := n.ID
		if !rooted[root] {
			continue
		}
		manet.Tree(s.w, root, func(id world.NodeID) bool {
			r, ok := s.root[id]
			return ok && r == root
		}, func(at, pred world.NodeID) { s.parent[at] = pred })
	}
}

// Inject routes one packet from src up its tree to the root actuator.
// done fires once with the outcome.
func (s *System) Inject(src world.NodeID, done func(ok bool)) {
	pkt := s.w.OpenPacket(src, done)
	if !s.built || !s.w.Node(src).Alive() {
		pkt.Close(false)
		return
	}
	if s.w.Node(src).Kind == world.Actuator {
		pkt.Close(true) // the actuator already has the data
		return
	}
	s.transmit(src, src, maxRetransmits, pkt)
}

// transmit walks the packet up the tree from at. On a broken hop the stuck
// node repairs its parent link by flooding toward the root, then the packet
// is retransmitted from the source (budget permitting).
func (s *System) transmit(src, at world.NodeID, budget int, pkt world.Packet) {
	if s.w.Node(at).Kind == world.Actuator {
		pkt.Close(true)
		return
	}
	p, ok := s.parent[at]
	if !ok || !s.w.Node(p).Alive() || !s.w.InRange(at, p) {
		s.repairAndRetransmit(src, at, budget, pkt)
		return
	}
	s.w.Send(at, p, energy.Communication, func(o world.Outcome) {
		if o == world.Delivered {
			pkt.Hop(s.w.Now(), int32(at), int32(p), 0)
			s.transmit(src, p, budget, pkt)
			return
		}
		s.repairAndRetransmit(src, at, budget, pkt)
	})
}

// repairAndRetransmit floods from the stuck node toward its root to
// re-establish parents along the discovered path, then retransmits the
// packet from the source. Concurrent packets stuck at the same node share a
// single repair flood.
func (s *System) repairAndRetransmit(src, stuck world.NodeID, budget int, pkt world.Packet) {
	if budget <= 0 {
		pkt.Close(false)
		return
	}
	root, ok := s.root[stuck]
	if !ok || !s.w.Node(stuck).Alive() {
		pkt.Close(false)
		return
	}
	cont := func(repaired bool) {
		if !repaired {
			pkt.Close(false)
			return
		}
		s.stats.Retransmits++
		retryFrom := src
		if !s.w.Node(src).Alive() {
			retryFrom = stuck
		}
		s.transmit(retryFrom, retryFrom, budget-1, pkt)
	}
	if waiting, inFlight := s.repairing[stuck]; inFlight {
		s.repairing[stuck] = append(waiting, cont)
		return
	}
	s.repairing[stuck] = []func(bool){cont}
	s.stats.Repairs++
	// Expanding-ring search: the root is a known nearby actuator, so a
	// cheap local flood usually suffices.
	manet.DiscoverRouteRing(s.w, stuck, root, []int{4, manet.DefaultTTL}, energy.Communication,
		func(path []world.NodeID) {
			if path != nil {
				// Re-point parents along the found path.
				for i := 0; i+1 < len(path); i++ {
					if s.w.Node(path[i]).Kind == world.Sensor {
						s.parent[path[i]] = path[i+1]
						s.root[path[i]] = root
					}
				}
			}
			waiting := s.repairing[stuck]
			delete(s.repairing, stuck)
			for _, w := range waiting {
				w(path != nil)
			}
		})
}
