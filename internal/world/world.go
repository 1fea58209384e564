// Package world is the WSAN substrate the four evaluated systems run on: a
// discrete-event radio network of mobile sensors and actuators on a plane.
//
// It replaces the paper's ns-2/802.11 stack with a protocol-level model
// that preserves the effects the evaluation measures:
//
//   - unit-disk connectivity with per-node transmission ranges (100 m
//     sensors, 250 m actuators by default),
//   - per-hop transmission time plus random backoff, with sender-side
//     queueing so congested relays build delay,
//   - per-packet Tx/Rx energy charged to construction or communication
//     ledgers through a pluggable cost model (the paper's flat 2 / 0.75 J
//     by default; optionally the distance-dependent first-order radio
//     model, with or without harvesting income and duty-cycled sleep),
//   - broadcast and TTL-bounded flooding (the expensive repair primitive
//     of the baseline systems),
//   - node mobility via closed-form mobility models, and fault injection.
//
// The package is deliberately protocol-agnostic: systems drive it through
// Send/Broadcast/Flood callbacks and keep their own routing state.
package world

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"refer/internal/des"
	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/metrics"
	"refer/internal/mobility"
	"refer/internal/trace"
)

// NodeID identifies a node in the world. IDs are dense, starting at 0.
type NodeID int

// NoNode is the sentinel for "no node".
const NoNode NodeID = -1

// Kind distinguishes resource-poor sensors from resource-rich actuators.
type Kind int

const (
	// Sensor is a low-power sensing device with a short radio range.
	Sensor Kind = iota + 1
	// Actuator is a resource-rich device with a long radio range and an
	// unconstrained power supply.
	Actuator
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Sensor:
		return "sensor"
	case Actuator:
		return "actuator"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Outcome reports why a transmission concluded.
type Outcome int

const (
	// Delivered means the packet reached the receiver.
	Delivered Outcome = iota + 1
	// OutOfRange means the receiver was beyond the sender's radio range.
	OutOfRange
	// ReceiverFailed means the receiver was injected as faulty.
	ReceiverFailed
	// SenderFailed means the sender itself was faulty or depleted.
	SenderFailed
	// Lost means the link dropped the packet in flight (transient
	// degradation injected via SetLinkLoss); the sender sees a lost ack.
	Lost
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case OutOfRange:
		return "out-of-range"
	case ReceiverFailed:
		return "receiver-failed"
	case SenderFailed:
		return "sender-failed"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config parameterizes the radio and MAC model.
type Config struct {
	// Region is the deployment area (paper: 500 m × 500 m).
	Region geo.Rect
	// Seed drives all randomness in the world.
	Seed int64
	// Energy is the per-packet cost model; nil means the paper's flat
	// constants (energy.DefaultModel). An energy.HarvestingModel
	// additionally makes the world schedule its periodic harvest-credit and
	// duty-cycled sleep events on the DES.
	Energy energy.CostModel
	// PacketBits is the packet size charged per transmission/reception
	// (default energy.DefaultPacketBits). Flat models ignore it.
	PacketBits int
	// HopDelay is the packet transmission time at the radio bit rate.
	HopDelay time.Duration
	// HopJitter is the maximum random MAC backoff added per transmission.
	HopJitter time.Duration
	// AckTimeout is how long a sender waits before concluding a
	// transmission failed (lost ack, dead receiver, broken link).
	AckTimeout time.Duration
}

// DefaultConfig returns the model used throughout the evaluation: 2 ms hop
// transmission time (≈1 KB at 802.11 data rates plus MAC overhead), up to
// 1 ms backoff, 20 ms failure detection.
func DefaultConfig() Config {
	return Config{
		Region:     geo.Square(500),
		Energy:     energy.DefaultModel(),
		HopDelay:   2 * time.Millisecond,
		HopJitter:  time.Millisecond,
		AckTimeout: 20 * time.Millisecond,
	}
}

// Node is one radio device.
type Node struct {
	ID    NodeID
	Kind  Kind
	Range float64
	Meter *energy.Meter
	Mob   mobility.Model

	failed bool
	// drained mirrors Meter.Depleted(). Every charge flows through the
	// world's charge wrappers, which set it on the depletion transition (and
	// bump aliveGen), so Alive is three flag reads on the forwarding hot
	// path instead of a battery recomputation. Harvesting income can clear
	// it again (the world's energy cycle handles the revival transition).
	drained bool
	// asleep marks a duty-cycled sleep window scheduled by the world's
	// energy cycle; sleeping nodes are not Alive.
	asleep    bool
	busyUntil time.Duration
}

// Failed reports whether the node is currently injected as faulty.
func (n *Node) Failed() bool { return n.failed }

// Alive reports whether the node can participate in the protocol: not
// faulty, not battery-depleted and not duty-cycled asleep.
func (n *Node) Alive() bool { return !n.failed && !n.drained && !n.asleep }

// World is the simulated WSAN.
type World struct {
	// Sched is the discrete-event core; systems may schedule their own
	// protocol timers on it.
	Sched des.Scheduler

	cfg       Config
	rng       *rand.Rand
	nodes     []*Node
	tracer    *trace.Recorder
	collector *metrics.Collector

	// Spatial index. The grid is allocated once and rebuilt in place
	// (Reset+Insert) only when accumulated mobility can have displaced some
	// node by more than gridStaleTol meters — the position-staleness epoch.
	// Queries stay exact regardless: the stale index is only a candidate
	// generator (radii get the staleness as slack) and every candidate is
	// re-checked against its exact position at the current virtual time.
	grid     *geo.Grid
	gridAt   time.Duration // virtual time the grid positions were sampled
	gridOK   bool
	maxSpeed float64 // max over node mobility bounds; +Inf for unknown models

	// actuators is the maintained actuator index NearestActuator scans
	// instead of the full node list.
	actuators []NodeID

	// Per-node neighbor caches, keyed by (virtual time, topoGen) with the
	// alive subset additionally keyed by aliveGen. The buffers are owned by
	// the world and reused, so the forwarding hot path allocates nothing.
	caches  []nodeCache
	topoGen uint64 // bumped by AddNode
	// aliveGen is bumped whenever any node's Alive() can have flipped:
	// fault injection/recovery and battery depletion through world charges.
	aliveGen uint64
	scratch  []int // Within candidate scratch shared across cache fills
	// sortKey holds the fresh-grid bucket keys of the neighborhood being
	// insertion-sorted by a cache fill; dead between fills.
	sortKey []int

	// linkLoss is the transient link degradation probability applied to
	// unicast sends. Zero (the default) draws no randomness, so runs
	// without chaos replay byte-identically to builds without the hook.
	linkLoss float64

	// borrowShadows, when non-nil, holds private copies of the cache-owned
	// slices handed out by Neighbors/AliveNeighbors, used to detect callers
	// violating the borrowed-slice contract. See EnableBorrowChecks.
	borrowShadows []borrowShadow

	// Lifetime bookkeeping: constrained counts battery-limited nodes,
	// depletedNow how many of them are currently dead, for the
	// FirstDeathAt/HalfDeadAt latches.
	constrained int
	depletedNow int

	// harvest is the harvesting interpretation of cfg.Energy, when it has
	// one; the periodic credit/sleep cycle is scheduled iff non-nil.
	harvest *energy.HarvestingModel

	// Free lists of the radio's continuation records (Send completions,
	// floods and their per-copy hops) and the scratch a flood's reverse path
	// is materialised into for the duration of one visit.
	sendFree  []*sendOp
	floodFree []*flood
	hopFree   []*floodHop
	floodPath []NodeID

	stats Stats
}

// nodeCache holds one node's memoized neighborhood at a fixed virtual time.
type nodeCache struct {
	at    time.Duration
	gen   uint64 // topoGen the entry was computed under
	valid bool
	// nb is the usable-link neighborhood in exactly the order a freshly
	// rebuilt grid would return it (fresh-bucket-major, node ID within a
	// bucket), so epoch-stale index state never leaks into results.
	nb []NodeID
	// carrier is the carrier-sense set: every node within the owner's own
	// transmission range, failed or not, in no particular order.
	carrier []NodeID
	// alive is the Alive() subset of nb, valid while aliveGen matches.
	alive      []NodeID
	aliveGen   uint64
	aliveValid bool
}

// Stats counts the world's spatial-index work for observability: how often
// the grid was actually rebuilt and how the neighbor cache performed. All
// counters are deterministic per seed.
type Stats struct {
	// GridRebuilds is the number of full spatial-index rebuilds.
	GridRebuilds uint64
	// NeighborRebuilds counts per-node neighborhood recomputations;
	// NeighborHits counts queries served from the cache.
	NeighborRebuilds uint64
	NeighborHits     uint64
	// MobilityEvals counts the mobility-model evaluations the world made
	// (every Mob.At goes through posAt); NeighborCandidates sums the grid
	// candidates the neighborhood recomputations examined.
	MobilityEvals      uint64
	NeighborCandidates uint64
	// FaultInjections and FaultRecoveries count SetFailed transitions, so
	// a fault campaign's footprint is visible in run stats.
	FaultInjections uint64
	FaultRecoveries uint64
	// LostSends counts unicast packets dropped by the link-loss hook.
	LostSends uint64
	// EnergyDrained sums Joules removed through DrainBattery (brownouts).
	EnergyDrained float64
	// EnergyHarvested sums Joules banked by the harvesting cycle.
	EnergyHarvested float64
	// NodeDeaths counts battery-depletion transitions; NodeRevivals counts
	// harvesting-driven recoveries from depletion.
	NodeDeaths   uint64
	NodeRevivals uint64
	// FirstDeathAt and HalfDeadAt latch the virtual times the first
	// battery-constrained node died and at which half of them were dead at
	// once; -1 means the event never happened.
	FirstDeathAt time.Duration
	HalfDeadAt   time.Duration
}

// Stats returns a snapshot of the world's spatial-index counters.
func (w *World) Stats() Stats { return w.stats }

// gridStaleTol is the position-staleness tolerance in meters: the spatial
// index is rebuilt only once any node can have moved this far since the
// grid's positions were sampled. Queries add the current staleness bound to
// their radius as slack and re-check candidates exactly, so the tolerance
// trades rebuild frequency against candidate-set width without ever
// changing results. 10 m is the measured sweet spot on the paper's default
// scenario (at its 5 m/s speed cap that is one rebuild per 2 virtual
// seconds instead of one per event); larger values save few rebuilds while
// widening every query's candidate ring.
const gridStaleTol = 10.0

// New creates an empty world.
func New(cfg Config) *World {
	if cfg.HopDelay <= 0 {
		cfg.HopDelay = DefaultConfig().HopDelay
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = DefaultConfig().AckTimeout
	}
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		cfg.Region = DefaultConfig().Region
	}
	if cfg.Energy == nil {
		cfg.Energy = energy.DefaultModel()
	}
	if cfg.PacketBits <= 0 {
		cfg.PacketBits = energy.DefaultPacketBits
	}
	w := &World{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	w.stats.FirstDeathAt = -1
	w.stats.HalfDeadAt = -1
	if h, ok := cfg.Energy.(energy.HarvestingModel); ok {
		w.harvest = &h
		w.scheduleEnergyCycle()
	}
	return w
}

// scheduleEnergyCycle starts the harvesting model's periodic cycle: every
// period, bank the harvest income into each constrained meter (reviving
// nodes whose batteries climb back above empty) and lay out the coming
// period's duty-cycled sleep windows, staggered by node ID so the network
// never sleeps all at once. The cycle is pure DES bookkeeping driven by
// node IDs and the fixed period — no randomness — so replays stay
// byte-identical.
func (w *World) scheduleEnergyCycle() {
	period := w.harvest.EffectivePeriod()
	income := w.harvest.IncomePerPeriod()
	sleepDur := time.Duration(w.harvest.EffectiveSleepFraction() * float64(period))
	awake := period - sleepDur
	const sleepPhases = 8
	var cycle func()
	cycle = func() {
		now := w.Sched.Now()
		for _, n := range w.nodes {
			if n.Meter.Budget() <= 0 {
				continue
			}
			if income > 0 {
				banked := n.Meter.Harvest(income)
				w.stats.EnergyHarvested += banked
				if n.drained && !n.Meter.Depleted() {
					n.drained = false
					w.aliveGen++
					w.depletedNow--
					w.stats.NodeRevivals++
				}
			}
			if sleepDur > 0 {
				id := n.ID
				phase := awake * time.Duration(int(id)%sleepPhases) / sleepPhases
				w.mustAt(now+phase, func() { w.setAsleep(id, true) })
				w.mustAt(now+phase+sleepDur, func() { w.setAsleep(id, false) })
			}
		}
		w.mustAt(now+period, cycle)
	}
	w.mustAt(period, cycle)
}

// mustAt schedules fn at a future virtual time; scheduling in the past is
// always a programming error here.
func (w *World) mustAt(at time.Duration, fn func()) {
	if _, err := w.Sched.At(at, fn); err != nil {
		panic(fmt.Sprintf("world: energy cycle: %v", err))
	}
}

// setAsleep flips a node's duty-cycle sleep state, folding the Alive
// transition into aliveGen so cached alive subsets notice it.
func (w *World) setAsleep(id NodeID, asleep bool) {
	n := w.nodes[id]
	if n.asleep != asleep {
		n.asleep = asleep
		w.aliveGen++
	}
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Rand returns the world's deterministic random source. Systems must draw
// all their randomness from it so runs replay identically per seed.
func (w *World) Rand() *rand.Rand { return w.rng }

// SetTracer attaches a per-run trace recorder. The world feeds it radio
// counters and the packet lifecycle (OpenPacket/Close); systems add hops and
// failover switches on the packet. A nil tracer (the default) disables
// tracing; every recording call then reduces to a nil check, leaving the
// forwarding hot path unchanged.
func (w *World) SetTracer(r *trace.Recorder) { w.tracer = r }

// Tracer returns the attached trace recorder, or nil when tracing is off.
// The nil value is directly usable: all trace methods no-op on it.
func (w *World) Tracer() *trace.Recorder { return w.tracer }

// Now returns the current virtual time.
func (w *World) Now() time.Duration { return w.Sched.Now() }

// AddNode registers a node and returns it. Battery semantics follow
// energy.NewMeter (<= 0 means unconstrained; actuators conventionally pass 0).
func (w *World) AddNode(kind Kind, mob mobility.Model, radioRange, battery float64) *Node {
	n := &Node{
		ID:    NodeID(len(w.nodes)),
		Kind:  kind,
		Range: radioRange,
		Meter: energy.NewMeter(w.cfg.Energy, battery),
		Mob:   mob,
	}
	w.nodes = append(w.nodes, n)
	w.caches = append(w.caches, nodeCache{})
	if kind == Actuator {
		w.actuators = append(w.actuators, n.ID)
	}
	if battery > 0 {
		w.constrained++
	}
	// Fold the node's speed bound into the world bound. A model that cannot
	// bound itself forces the conservative regime: rebuild on every clock
	// advance, exactly the pre-epoch behavior.
	if sb, ok := mob.(mobility.SpeedBounded); ok {
		if s := sb.MaxSpeed(); s > w.maxSpeed {
			w.maxSpeed = s
		}
	} else {
		w.maxSpeed = math.Inf(1)
	}
	w.topoGen++
	w.gridOK = false
	return n
}

// Node returns the node with the given ID; it panics on an invalid ID,
// which is always a programming error in a system implementation.
func (w *World) Node(id NodeID) *Node { return w.nodes[id] }

// Len returns the number of nodes.
func (w *World) Len() int { return len(w.nodes) }

// MaxSpeed returns the maximum mobility speed bound over all nodes (+Inf
// when any node's model has no known bound). Zero means every node is
// static, which lets position-derived caches skip refreshing entirely.
func (w *World) MaxSpeed() float64 { return w.maxSpeed }

// Nodes returns the node list (shared slice; callers must not mutate).
func (w *World) Nodes() []*Node { return w.nodes }

// Position returns a node's position at the current virtual time.
func (w *World) Position(id NodeID) geo.Point {
	return w.posAt(w.nodes[id], w.Sched.Now())
}

// posAt evaluates n's mobility model at now. It is the only place the world
// calls Mob.At, so Stats.MobilityEvals counts every evaluation.
func (w *World) posAt(n *Node, now time.Duration) geo.Point {
	w.stats.MobilityEvals++
	return n.Mob.At(now)
}

// Distance returns the current distance between two nodes.
func (w *World) Distance(a, b NodeID) float64 {
	return w.Position(a).Dist(w.Position(b))
}

// LinkRange returns the usable link range between two nodes: the smaller of
// the two radio ranges. Links are symmetric — 802.11-style unicast needs the
// reverse direction for acknowledgements, so a 250 m actuator still cannot
// hold a link to a 100 m sensor beyond 100 m.
func (w *World) LinkRange(a, b NodeID) float64 {
	ra, rb := w.nodes[a].Range, w.nodes[b].Range
	if rb < ra {
		return rb
	}
	return ra
}

// InRange reports whether from and to currently share a usable link.
func (w *World) InRange(from, to NodeID) bool {
	return w.Distance(from, to) <= w.LinkRange(from, to)
}

// SetFailed injects or clears a fault on a node.
func (w *World) SetFailed(id NodeID, failed bool) {
	n := w.nodes[id]
	if n.failed != failed {
		n.failed = failed
		w.aliveGen++
		if failed {
			w.stats.FaultInjections++
		} else {
			w.stats.FaultRecoveries++
		}
	}
}

// SetLinkLoss sets the probability in [0, 1] that a unicast send with an
// in-range, alive receiver is lost in flight (the sender times out as if
// the ack were lost). A rate of zero — the default — draws no randomness,
// so runs that never enable loss replay byte-identically. Broadcasts and
// floods are unaffected: loss models data-path degradation, and the
// baseline repair floods already pay their cost in energy and delay.
func (w *World) SetLinkLoss(p float64) {
	w.linkLoss = math.Max(0, math.Min(1, p))
}

// LinkLoss returns the current link-loss probability.
func (w *World) LinkLoss() float64 { return w.linkLoss }

// DrainBattery removes the given fraction of a node's *remaining* battery
// through the meter's drain ledger (fault-injection brownouts). Depletion
// is folded into aliveGen exactly like packet charges, so cached alive
// subsets notice a browned-out death. Unconstrained meters (actuators) are
// unaffected. Returns the Joules drained.
func (w *World) DrainBattery(id NodeID, fraction float64) float64 {
	n := w.nodes[id]
	if n.Meter.Budget() <= 0 || fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	j := n.Meter.Drain(fraction * n.Meter.Remaining())
	w.stats.EnergyDrained += j
	w.noteDepletion(n)
	return j
}

// noteDepletion folds a battery-depletion transition into aliveGen so the
// cached alive subsets notice the node's death, and latches the lifetime
// markers (first node death, half the constrained nodes dead). Called
// after every charge; the drained flag makes the transition fire exactly
// once per death (harvesting revivals re-arm it).
func (w *World) noteDepletion(n *Node) {
	if !n.drained && n.Meter.Depleted() {
		n.drained = true
		w.aliveGen++
		w.depletedNow++
		w.stats.NodeDeaths++
		now := w.Sched.Now()
		if w.stats.FirstDeathAt < 0 {
			w.stats.FirstDeathAt = now
		}
		if w.stats.HalfDeadAt < 0 && 2*w.depletedNow >= w.constrained {
			w.stats.HalfDeadAt = now
		}
	}
}

// chargeTx and chargeRx are the only paths energy leaves a meter on, so
// depletion transitions are always observed. dist is the link distance the
// transmit amplifier must cover; receptions are distance-independent in
// every model, so chargeRx passes 0.
func (w *World) chargeTx(n *Node, l energy.Ledger, dist float64) {
	n.Meter.ChargeTx(l, w.cfg.PacketBits, dist)
	w.noteDepletion(n)
}

func (w *World) chargeRx(n *Node, l energy.Ledger) {
	n.Meter.ChargeRx(l, w.cfg.PacketBits, 0)
	w.noteDepletion(n)
}

// refreshGrid (re)builds the spatial index when node positions may have
// drifted more than gridStaleTol since the last build. Static worlds
// (maxSpeed 0) build exactly once; mobile worlds rebuild once per staleness
// epoch instead of once per event, reusing the grid's bucket storage.
func (w *World) refreshGrid() {
	now := w.Sched.Now()
	if w.gridOK {
		if now == w.gridAt {
			return
		}
		// Ordered after the equality check: with an unbounded (+Inf) speed
		// and zero elapsed time the product would be NaN, not zero.
		if w.maxSpeed*(now-w.gridAt).Seconds() <= gridStaleTol {
			return
		}
	}
	if w.grid == nil {
		// Cell size on the order of the sensor radio range, shrunk for small
		// regions — considering both dimensions, so a tall narrow region gets
		// cells matched to its thin axis instead of one degenerate column.
		cell := 50.0
		if m := math.Min(w.cfg.Region.Width(), w.cfg.Region.Height()); m < 200 {
			cell = m / 4
		}
		w.grid = geo.NewGrid(w.cfg.Region, cell)
	} else {
		w.grid.Reset()
	}
	for _, n := range w.nodes {
		w.grid.Insert(int(n.ID), w.posAt(n, now))
	}
	w.gridAt = now
	w.gridOK = true
	w.stats.GridRebuilds++
}

// querySlack bounds how far any node can have strayed from its indexed
// position. Queries widen their radius by this much and re-check candidates
// exactly, so results never depend on the staleness.
func (w *World) querySlack(now time.Duration) float64 {
	if now == w.gridAt {
		return 0
	}
	return w.maxSpeed * (now - w.gridAt).Seconds()
}

// neighborCache returns from's neighborhood memoized at the current virtual
// time, computing it if the clock or topology moved since the last query.
//
// The computation queries the (possibly stale) grid with slack, filters the
// candidates against exact current positions using the same float
// comparisons a direct query would make, and re-sorts survivors into the
// order a freshly rebuilt grid would list them (bucket-major by the exact
// position's cell, node ID within a cell — IDs because the rebuild inserts
// in ID order). Results are therefore bit-identical to rebuilding the index
// at every event, while the index is only rebuilt once per staleness epoch.
func (w *World) neighborCache(from NodeID) *nodeCache {
	w.refreshGrid()
	now := w.Sched.Now()
	c := &w.caches[from]
	// A fully static world (every model bounds its speed at 0) has
	// time-invariant positions, so entries never expire by clock.
	if c.valid && c.gen == w.topoGen && (c.at == now || w.maxSpeed == 0) {
		w.stats.NeighborHits++
		return c
	}
	w.stats.NeighborRebuilds++
	if w.borrowShadows != nil {
		w.verifyBorrowedNeighbors(from, c)
	}
	n := w.nodes[from]
	p := w.posAt(n, now)
	w.scratch = w.grid.Within(w.scratch[:0], p, n.Range+w.querySlack(now), int(from))
	w.stats.NeighborCandidates += uint64(len(w.scratch))
	c.carrier = c.carrier[:0]
	c.nb = c.nb[:0]
	key := w.sortKey[:0]
	maxR2 := n.Range * n.Range
	for _, i := range w.scratch {
		q := w.posAt(w.nodes[i], now)
		dx, dy := q.X-p.X, q.Y-p.Y
		if dx*dx+dy*dy > maxR2 {
			continue
		}
		c.carrier = append(c.carrier, NodeID(i))
		if p.Dist(q) > w.nodes[i].Range {
			continue
		}
		// Insertion sort by (fresh cell key, ID); neighborhoods are small.
		k := w.grid.CellKey(q)
		j := len(c.nb)
		c.nb = append(c.nb, NodeID(i))
		key = append(key, k)
		for j > 0 && (key[j-1] > k || (key[j-1] == k && c.nb[j-1] > NodeID(i))) {
			c.nb[j], key[j] = c.nb[j-1], key[j-1]
			j--
		}
		c.nb[j], key[j] = NodeID(i), k
	}
	w.sortKey = key
	c.at = now
	c.gen = w.topoGen
	c.valid = true
	c.aliveValid = false
	if w.borrowShadows != nil {
		w.snapshotBorrowedNeighbors(from, c)
	}
	return c
}

// Neighbors returns the IDs of all nodes sharing a usable link with from
// (failed nodes included — radios cannot see remote faults, protocols
// discover them through failed sends).
//
// With a nil dst the returned slice is owned by the world's per-node cache:
// it is valid until the next same-node query at a later virtual time or
// changed topology, and must not be mutated or retained across events. Pass
// a non-nil dst to get an appended copy instead.
func (w *World) Neighbors(dst []NodeID, from NodeID) []NodeID {
	c := w.neighborCache(from)
	if dst == nil {
		return c.nb
	}
	return append(dst, c.nb...)
}

// AliveNeighbors returns the IDs of in-range nodes that are alive. The nil-
// dst borrowing contract of Neighbors applies, with one more invalidation
// trigger: any fault injection or battery depletion refreshes the subset.
func (w *World) AliveNeighbors(dst []NodeID, from NodeID) []NodeID {
	c := w.neighborCache(from)
	if !c.aliveValid || c.aliveGen != w.aliveGen {
		if w.borrowShadows != nil {
			w.verifyBorrowedAlive(from, c)
		}
		c.alive = c.alive[:0]
		for _, id := range c.nb {
			if w.nodes[id].Alive() {
				c.alive = append(c.alive, id)
			}
		}
		c.aliveGen = w.aliveGen
		c.aliveValid = true
		if w.borrowShadows != nil {
			w.snapshotBorrowedAlive(from, c)
		}
	}
	if dst == nil {
		return c.alive
	}
	return append(dst, c.alive...)
}

// NearestActuator returns the closest non-failed actuator to the node, or
// NoNode if none exists. It scans the maintained actuator index — a few
// dozen entries — rather than the full node list. Ties resolve to the
// lowest ID (the index is in insertion = ID order and the comparison is
// strict), matching the world's other tie rules.
func (w *World) NearestActuator(from NodeID) NodeID {
	now := w.Sched.Now()
	p := w.posAt(w.nodes[from], now)
	best := NoNode
	bestDist := 0.0
	for _, id := range w.actuators {
		n := w.nodes[id]
		if !n.Alive() {
			continue
		}
		d := p.Dist(w.posAt(n, now))
		if best == NoNode || d < bestDist {
			best, bestDist = id, d
		}
	}
	return best
}

// txDelay draws one transmission's air time (hop delay + random backoff).
func (w *World) txDelay() time.Duration {
	d := w.cfg.HopDelay
	if w.cfg.HopJitter > 0 {
		d += time.Duration(w.rng.Int63n(int64(w.cfg.HopJitter)))
	}
	return d
}

// acquireRadio serializes a node's transmissions and models carrier sense:
// a busy radio queues the packet, and while the packet is on the air every
// node within the sender's range defers its own transmissions — the shared
// medium that makes flooding storms slow as well as expensive. It returns
// the time the transmission completes.
func (w *World) acquireRadio(n *Node, txTime time.Duration) time.Duration {
	start := w.Sched.Now()
	if n.busyUntil > start {
		start = n.busyUntil
	}
	end := start + txTime
	n.busyUntil = end
	// The carrier-sense set (everything inside the sender's own range,
	// failed or not) comes from the same per-node cache as the neighbor
	// sets, so a busy forwarding node computes it once per event.
	for _, id := range w.neighborCache(n.ID).carrier {
		nb := w.nodes[id]
		if nb.busyUntil < end {
			nb.busyUntil = end
		}
	}
	return end
}

// sendOp is one pending unicast completion. Records are pooled on the world
// and carry a fire callback bound once at minting, so scheduling a
// completion allocates nothing in steady state.
type sendOp struct {
	w       *World
	onDone  func(Outcome)
	outcome Outcome
	fire    func() // op.run
}

// run returns the record to the pool before invoking the user callback:
// onDone typically forwards the packet with another Send.
func (op *sendOp) run() {
	w, onDone, o := op.w, op.onDone, op.outcome
	op.onDone = nil
	w.sendFree = append(w.sendFree, op)
	onDone(o)
}

// completeSend schedules onDone(o) at virtual time at; a nil onDone schedules
// nothing.
func (w *World) completeSend(onDone func(Outcome), o Outcome, at time.Duration) {
	if onDone == nil {
		return
	}
	var op *sendOp
	if n := len(w.sendFree); n > 0 {
		op, w.sendFree = w.sendFree[n-1], w.sendFree[:n-1]
	} else {
		op = &sendOp{w: w}
		op.fire = op.run
	}
	op.onDone, op.outcome = onDone, o
	if _, err := w.Sched.At(at, op.fire); err != nil {
		// Scheduling in the past cannot happen: at >= now by construction.
		panic(fmt.Sprintf("world: send completion: %v", err))
	}
}

// Send transmits one packet from from to to. onDone is invoked exactly once
// with the outcome; for Delivered it runs at the reception time, for
// failures after the ack timeout (the sender pays the detection latency).
// Energy is charged to the given ledger: Tx on the sender for every
// attempt, Rx on the receiver only on delivery. A nil onDone is allowed.
func (w *World) Send(from, to NodeID, ledger energy.Ledger, onDone func(Outcome)) {
	sender := w.nodes[from]
	if !sender.Alive() {
		w.tracer.RadioSend(false)
		w.completeSend(onDone, SenderFailed, w.Sched.Now())
		return
	}
	end := w.acquireRadio(sender, w.txDelay())
	// The transmit amplifier covers the receiver's actual distance (power
	// control), capped at the sender's own range for out-of-range attempts
	// transmitted at full power.
	dist := w.Distance(from, to)
	txDist := dist
	if txDist > sender.Range {
		txDist = sender.Range
	}
	w.chargeTx(sender, ledger, txDist)
	receiver := w.nodes[to]
	switch {
	case dist > w.LinkRange(from, to):
		w.tracer.RadioSend(false)
		w.completeSend(onDone, OutOfRange, end+w.cfg.AckTimeout)
	case !receiver.Alive():
		w.tracer.RadioSend(false)
		w.completeSend(onDone, ReceiverFailed, end+w.cfg.AckTimeout)
	case w.linkLoss > 0 && w.rng.Float64() < w.linkLoss:
		// Guarded on linkLoss > 0 so the zero-loss path draws no RNG and
		// replays of non-chaos runs stay byte-identical.
		w.stats.LostSends++
		w.tracer.RadioSend(false)
		w.completeSend(onDone, Lost, end+w.cfg.AckTimeout)
	default:
		w.tracer.RadioSend(true)
		w.chargeRx(receiver, ledger)
		w.completeSend(onDone, Delivered, end)
	}
}

// Broadcast transmits one packet to every in-range alive neighbor, charging
// each its reception, and returns the number of receivers. Failed neighbors
// silently miss the packet.
func (w *World) Broadcast(from NodeID, ledger energy.Ledger) int {
	sender := w.nodes[from]
	if !sender.Alive() {
		return 0
	}
	w.tracer.RadioBroadcast()
	w.acquireRadio(sender, w.txDelay())
	// Broadcasts transmit at full power: the amplifier covers the whole range.
	w.chargeTx(sender, ledger, sender.Range)
	targets := w.AliveNeighbors(nil, from)
	for _, id := range targets {
		w.chargeRx(w.nodes[id], ledger)
	}
	return len(targets)
}

// FloodVisit is called once per node reached by a flood, with the hop count
// and the reverse path (origin first, visited node last). Returning false
// stops the flood from rebroadcasting at that node. The path is borrowed: it
// lives in world-owned scratch that the next visit overwrites, so a visitor
// that keeps any of it must copy before returning (EnableBorrowChecks
// poisons it with NoNode on return, so a retained path cannot go unnoticed).
type FloodVisit func(at NodeID, hops int, path []NodeID) bool

// flood is the shared state of one in-progress Flood and floodHop one copy
// of its packet on the air. Both are pooled on the world with their event
// callbacks bound once at minting, so a flood allocates nothing in steady
// state. parent records who first reached each node — the dedup set and,
// walked backwards, every reverse path.
type flood struct {
	w           *World
	ttl         int
	ledger      energy.Ledger
	visit       FloodVisit
	onDone      func()
	parent      map[NodeID]NodeID
	outstanding int
	quiesce     func() // fl.finish
}

type floodHop struct {
	fl   *flood
	at   NodeID
	hops int
	fire func() // h.run
}

// Flood performs a TTL-bounded broadcast flood from origin — the route
// discovery / repair primitive of the baseline systems ("topological
// routing"). Every reached node receives the packet once (dedup by flood
// sequence) and rebroadcasts until the TTL is exhausted or visit returns
// false. onDone, if non-nil, runs when the flood has quiesced.
//
// The energy bill is what makes flooding expensive: one Tx per rebroadcast
// and one Rx per copy received — including duplicate copies, which real
// radios cannot avoid hearing.
func (w *World) Flood(origin NodeID, ttl int, ledger energy.Ledger, visit FloodVisit, onDone func()) {
	var fl *flood
	if n := len(w.floodFree); n > 0 {
		fl, w.floodFree = w.floodFree[n-1], w.floodFree[:n-1]
	} else {
		fl = &flood{w: w, parent: make(map[NodeID]NodeID, 64)}
		fl.quiesce = fl.finish
	}
	fl.ttl, fl.ledger, fl.visit, fl.onDone = ttl, ledger, visit, onDone
	fl.parent[origin] = NoNode
	fl.rebroadcast(origin, 0)
	if fl.outstanding == 0 {
		// Nobody in range: quiesce immediately (next tick).
		if _, err := w.Sched.After(0, fl.quiesce); err != nil {
			panic(fmt.Sprintf("world: flood quiesce: %v", err))
		}
	}
}

// rebroadcast transmits the flood packet from at, which received it after
// hops hops, and schedules one reception per neighbor not reached before.
func (fl *flood) rebroadcast(at NodeID, hops int) {
	w := fl.w
	node := w.nodes[at]
	if !node.Alive() {
		return
	}
	w.tracer.RadioBroadcast()
	end := w.acquireRadio(node, w.txDelay())
	w.chargeTx(node, fl.ledger, node.Range)
	for _, nb := range w.AliveNeighbors(nil, at) {
		w.chargeRx(w.nodes[nb], fl.ledger) // every copy is heard
		if _, seen := fl.parent[nb]; seen {
			continue
		}
		fl.parent[nb] = at
		fl.outstanding++
		var h *floodHop
		if n := len(w.hopFree); n > 0 {
			h, w.hopFree = w.hopFree[n-1], w.hopFree[:n-1]
		} else {
			h = &floodHop{}
			h.fire = h.run
		}
		h.fl, h.at, h.hops = fl, nb, hops+1
		if _, err := w.Sched.At(end, h.fire); err != nil {
			panic(fmt.Sprintf("world: flood delivery: %v", err))
		}
	}
}

// run is one reception: visit, maybe rebroadcast, and quiesce the flood when
// this was its last copy on the air. The hop record is recycled first — the
// visitor may start floods of its own.
func (h *floodHop) run() {
	fl, at, hops := h.fl, h.at, h.hops
	w := fl.w
	h.fl = nil
	w.hopFree = append(w.hopFree, h)
	fl.outstanding--
	cont := true
	if fl.visit != nil {
		if cap(w.floodPath) <= hops {
			w.floodPath = make([]NodeID, 2*(hops+1))
		}
		path := w.floodPath[:hops+1]
		for i, id := hops, at; i >= 0; i, id = i-1, fl.parent[id] {
			path[i] = id
		}
		cont = fl.visit(at, hops, path)
		if w.borrowShadows != nil {
			// Poison the scratch so a visitor that retained the borrowed
			// path reads NoNode instead of plausible stale IDs.
			for i := range path {
				path[i] = NoNode
			}
		}
	}
	if cont && hops < fl.ttl && w.nodes[at].Alive() {
		fl.rebroadcast(at, hops)
	}
	if fl.outstanding == 0 {
		fl.finish()
	}
}

// finish recycles the flood before running onDone, which may flood again.
func (fl *flood) finish() {
	onDone := fl.onDone
	fl.visit, fl.onDone = nil, nil
	clear(fl.parent)
	fl.w.floodFree = append(fl.w.floodFree, fl)
	if onDone != nil {
		onDone()
	}
}

// TotalEnergy sums the given ledger across all nodes.
func (w *World) TotalEnergy(l energy.Ledger) float64 {
	sum := 0.0
	for _, n := range w.nodes {
		sum += n.Meter.SpentOn(l)
	}
	return sum
}

// AfterNode is Sched.After; the node is ignored. benchmark/ compatibility
// only (benchmark/driver.go compiles against it and benchmark/ changes in
// benchmark-only PRs): no caller outside benchmark/. Delete with the
// des.tagged_fire_ns probe in the next benchmark-only PR.
func (w *World) AfterNode(delay time.Duration, _ NodeID, fn func()) (des.Handle, error) {
	return w.Sched.After(delay, fn)
}
