// Package core implements REFER — the Kautz-based REal-time, Fault-tolerant
// and EneRgy-efficient WSAN of the paper (Section III).
//
// A REFER network is organized in three layers:
//
//  1. Cells. The actuator layer is partitioned into triangles; each triangle
//     is a cell hosting an embedded Kautz graph K(2,3) whose three "corner"
//     vertices (KIDs 012, 120, 201) are the cell's actuators and whose nine
//     remaining vertices are selected sensors. Overlay neighbors are radio
//     neighbors — the topology-consistency property that separates REFER
//     from application-layer Kautz overlays.
//  2. DHT tier. Actuators form a CAN keyed by cell IDs (centroids), used for
//     inter-cell routing.
//  3. Routing. Intra-cell forwarding uses the greedy shortest Kautz protocol
//     with Theorem 3.8 failover: on a failed successor the relay ranks the
//     remaining disjoint paths by length — computed from IDs alone — and
//     retries, with no flooding and no notification to the source.
//
// Topology maintenance keeps the embedding alive under mobility and battery
// drain with the awake/wait/sleep replacement scheme of Section III-B-4.
package core

import (
	"fmt"
	"time"

	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/world"
)

// The cell geometry has one value in use, so these are constants, not Config
// fields.
const (
	// diameter is the Kautz diameter k of a cell graph: K(d,3) cells, three
	// actuator corners per cell.
	diameter = 3
	// cellMargin expands each triangle when deciding which sensors belong
	// to a cell, so border sensors participate (meters).
	cellMargin = 40.0
	// hopBudget bounds the number of overlay hops a packet may take before
	// being dropped (loop protection): 3k+4.
	hopBudget = 3*diameter + 4
)

// Config parameterizes a REFER deployment.
type Config struct {
	// Degree is the Kautz degree d. d = 2 uses the paper's exact K(2,3)
	// embedding protocol; d > 2 uses the generalized wavefront embedding
	// (embed_general.go) and needs a denser deployment.
	Degree int
	// ProbeInterval is the topology-maintenance period: how often Kautz
	// sensors probe their overlay links and hand over to candidates.
	ProbeInterval time.Duration
	// DisableFailover turns off the Theorem 3.8 alternate-path failover:
	// a relay only ever tries the greedy shortest successor and drops the
	// packet when it fails. Ablation knob for quantifying the theorem's
	// contribution.
	DisableFailover bool
	// DisableMaintenance turns off the awake/wait/sleep replacement scheme
	// (Section III-B-4). Ablation knob: under mobility the embedding then
	// decays and routing must work around dead or displaced overlay nodes.
	DisableMaintenance bool
}

// DefaultConfig returns the paper's cell configuration.
func DefaultConfig() Config {
	return Config{Degree: 2, ProbeInterval: 5 * time.Second}
}

// Address is a REFER node address (CID, KID) as defined in Section III-B.
type Address struct {
	CID int
	KID kautz.ID
}

// String implements fmt.Stringer, e.g. "(5,201)".
func (a Address) String() string { return fmt.Sprintf("(%d,%s)", a.CID, a.KID) }

// System is a built REFER network over a world.
type System struct {
	w   *world.World
	cfg Config

	graph     *kautz.Graph
	kids      []kautz.ID        // graph.Nodes(), in ascending order
	routes    *kautz.RouteTable // the process-wide precomputed Theorem 3.8 routes of K(d,k)
	cells     []*Cell
	cellByCID map[int]*Cell
	dht       *dhtTier

	// membership: a sensor belongs to at most one cell; an actuator may sit
	// in several cells (keeping the same KID in each whenever the coloring
	// permits, Section III-B).
	sensorCell map[world.NodeID]*Cell
	actuators  []world.NodeID

	// cellIndex locates cells by position; memberCell maps every overlay
	// member to its first cell in s.cells order, which is the cell entry
	// selection attaches through.
	cellIndex  *geo.TriIndex
	memberCell map[world.NodeID]*Cell
	// homePos/homeValid memoize each sensor's position at its last homing
	// decision: cell triangles are fixed at build time, so ownership is a
	// pure function of position and an unmoved sensor can skip re-homing
	// exactly. Indexed by NodeID. homedLen is the world's node count when the
	// last full homing pass ended: while it still equals w.Len(), every sensor
	// has a memoized home.
	homePos   []geo.Point
	homeValid []bool
	homedLen  int
	// poolBuf is the reused candidatePool buffer (single-threaded runs; the
	// returned slice is borrowed until the next candidatePool call).
	poolBuf []world.NodeID
	// flightFree recycles packet flights (route.go); its high-water mark is
	// the peak number of packets in flight.
	flightFree []*flight

	built         bool
	maintenanceOn bool
	degradedAt    map[world.NodeID]time.Duration
	// cornerDownAt records when a recovery sweep first observed a corner
	// actuator dead (virtual time), keyed by the actuator; repairs trigger
	// once an entry ages past the grace window (recover.go). Lazily
	// allocated on the first sweep so recovery-disabled runs never touch it.
	cornerDownAt map[world.NodeID]time.Duration
	stats        Stats
}

// Stats counts protocol activity for analysis and tests.
type Stats struct {
	// FailoverSwitches counts Theorem 3.8 alternate-successor decisions.
	FailoverSwitches int
	// Replacements counts maintenance node replacements.
	Replacements int
	// InterCell counts packets that crossed cells via the DHT tier.
	InterCell int
	// RouteCacheHits counts forwarding decisions, each of which reads one
	// Theorem 3.8 route set from the precomputed route table.
	RouteCacheHits int
	// MaintainChecks counts cell containment/distance predicate evaluations
	// spent homing sensors (construction assignment plus every maintenance
	// round). The counter is deterministic per seed, so the scale figure can
	// plot it.
	MaintainChecks int
	// Rehomes counts sensors whose cell actually changed during maintenance.
	Rehomes int
	// RelayScans counts the cell nodes bestRelay examined looking for a
	// physical relay of an out-of-range overlay link.
	RelayScans uint64
}

// New creates an unbuilt REFER system on w.
func New(w *world.World, cfg Config) *System {
	if cfg.Degree == 0 {
		cfg.Degree = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultConfig().ProbeInterval
	}
	return &System{
		w:          w,
		cfg:        cfg,
		cellByCID:  make(map[int]*Cell),
		sensorCell: make(map[world.NodeID]*Cell),
		memberCell: make(map[world.NodeID]*Cell),
		degradedAt: make(map[world.NodeID]time.Duration),
	}
}

// Stats returns a snapshot of the protocol counters. MaintainChecks is read
// off the cell index, which counts its own predicate evaluations (zero
// before Build).
func (s *System) Stats() Stats {
	st := s.stats
	if s.cellIndex != nil {
		st.MaintainChecks = int(s.cellIndex.Checks())
	}
	return st
}

// Cells returns the built cells.
func (s *System) Cells() []*Cell { return s.cells }

// Graph returns the Kautz template graph K(d,k).
func (s *System) Graph() *kautz.Graph { return s.graph }

// AddressOf returns the address of a node within its (first) cell, if the
// node is an overlay member.
func (s *System) AddressOf(id world.NodeID) (Address, bool) {
	if c, ok := s.sensorCell[id]; ok {
		if kid, ok := c.kidOfNode[id]; ok {
			return Address{CID: c.CID, KID: kid}, true
		}
		return Address{}, false
	}
	for _, c := range s.cells {
		if kid, ok := c.kidOfNode[id]; ok {
			return Address{CID: c.CID, KID: kid}, true
		}
	}
	return Address{}, false
}

// DHTRoute returns the CAN-tier CID route between two cells and whether
// pure greedy forwarding sufficed (false also covers unbuilt systems or a
// disconnected pair, in which case the route is nil). Endpoints and hops
// belonging to cells retired by a recovery merge resolve to their absorbers
// (the CAN zone takeover), so routes only ever name active cells.
func (s *System) DHTRoute(fromCID, toCID int) ([]int, bool) {
	if s.dht == nil {
		return nil, false
	}
	route, greedy := s.dht.table.Route(s.dht.resolve(fromCID), s.dht.resolve(toCID))
	if route == nil {
		return nil, greedy
	}
	return s.remapCIDRoute(route), greedy
}
