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

// NodeID identifies a node in the world. IDs are dense, starting at 0, and
// four bytes wide: neighbor lists, flood maps and per-node tables hold them.
type NodeID int32

// MaxNodes is how many nodes one world holds, so that IDs never wrap.
const MaxNodes = math.MaxInt32

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

	// space is the spatial layer (space.go): positions, neighborhoods,
	// carrier sense and the nearest actuator.
	space    space
	maxSpeed float64 // max over node mobility bounds

	// aliveGen is bumped whenever any node's Alive() can have flipped:
	// fault injection/recovery and battery depletion through world charges.
	// It keys the spatial layer's cached alive subsets.
	aliveGen uint64

	// linkLoss is the transient link degradation probability applied to
	// unicast sends. Zero (the default) draws no randomness, so runs
	// without chaos replay byte-identically to builds without the hook.
	linkLoss float64

	// Lifetime bookkeeping: constrained counts battery-limited nodes,
	// depletedNow how many of them are currently dead, for the
	// FirstDeathAt/HalfDeadAt latches.
	constrained int
	depletedNow int

	// harvest is the harvesting interpretation of cfg.Energy, when it has
	// one; the periodic credit/sleep cycle is scheduled iff non-nil.
	harvest *energy.HarvestingModel

	// Free lists of the radio's continuation records (Send completions,
	// floods and their rebroadcasts).
	sendFree  []*sendOp
	floodFree []*flood
	hopFree   []*floodHop

	// The path-search table and its visit list, lent to one synchronous
	// search at a time (BorrowSearch). via is all zero between searches and
	// empty until the first one.
	via       []NodeID
	visit     []NodeID
	searching bool

	stats Stats
}

// Stats counts the world's work and events for observability: how often the
// spatial layer's grid was rebuilt and how its neighbor cache performed, and
// the faults, link losses, energy drained and harvested, and battery deaths
// the run saw. All counters are deterministic per seed.
type Stats struct {
	// GridRebuilds is the number of full spatial-index rebuilds.
	GridRebuilds uint64
	// NeighborRebuilds counts per-node neighborhood recomputations;
	// NeighborHits counts queries served from the cache.
	NeighborRebuilds uint64
	NeighborHits     uint64
	// MobilityEvals counts the mobility legs the position table fetched;
	// NeighborCandidates sums the grid candidates the neighborhood
	// recomputations examined.
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

// Stats returns a snapshot of the world's counters.
func (w *World) Stats() Stats { return w.stats }

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
	w.space = newSpace(w)
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

// mustAt schedules fn at virtual time at. Every caller passes at >= now by
// construction, so an error is a programming error here.
func (w *World) mustAt(at time.Duration, fn func()) {
	if _, err := w.Sched.At(at, fn); err != nil {
		panic(fmt.Sprintf("world: %v", err))
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
// The node's radio range is fixed from here on.
func (w *World) AddNode(kind Kind, mob mobility.Model, radioRange, battery float64) *Node {
	n := &Node{
		ID:    nextID(len(w.nodes)),
		Kind:  kind,
		Range: radioRange,
		Meter: energy.NewMeter(w.cfg.Energy, battery),
		Mob:   mob,
	}
	w.nodes = append(w.nodes, n)
	w.space.add(n)
	if battery > 0 {
		w.constrained++
	}
	if s := mob.MaxSpeed(); s > w.maxSpeed {
		w.maxSpeed = s
	}
	return n
}

// Grow makes room for n more nodes, as slices.Grow does for elements: the
// node list and the spatial layer's per-node tables are allocated once, at
// their final size, instead of grown by AddNode's appends. A world that
// takes more nodes than the hint still grows by append.
func (w *World) Grow(n int) {
	w.nodes = presize(w.nodes, n)
	w.space.grow(n)
}

// presize returns s with room for exactly n more elements, reallocated only
// when it has less.
func presize[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]E, len(s), len(s)+n)
	copy(t, s)
	return t
}

// nextID returns the ID of a world's (n+1)-th node. Callers size worlds
// from validated input, so running out of IDs is a bug, not an error.
func nextID(n int) NodeID {
	if n >= MaxNodes {
		panic(fmt.Sprintf("world: node %d does not fit in a NodeID", n))
	}
	return NodeID(n)
}

// Node returns the node with the given ID; it panics on an invalid ID,
// which is always a programming error in a system implementation.
func (w *World) Node(id NodeID) *Node { return w.nodes[id] }

// Len returns the number of nodes.
func (w *World) Len() int { return len(w.nodes) }

// MaxSpeed returns the maximum mobility speed bound over all nodes. Zero
// means every node is static, which lets position-derived caches skip
// refreshing entirely.
func (w *World) MaxSpeed() float64 { return w.maxSpeed }

// Nodes returns the node list (shared slice; callers must not mutate).
func (w *World) Nodes() []*Node { return w.nodes }

// Position returns a node's position at the current virtual time.
func (w *World) Position(id NodeID) geo.Point {
	return w.space.position(id)
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
	return min(w.nodes[a].Range, w.nodes[b].Range)
}

// InRange reports whether from and to currently share a usable link.
func (w *World) InRange(from, to NodeID) bool {
	return linkWithin(w.Position(from), w.Position(to), w.LinkRange(from, to))
}

// linkWithin reports p.Dist(q) <= r exactly, for coordinates and ranges whose
// squares neither overflow nor underflow. Rounding d² and Hypot each err by
// ~1e-16 relative, so only a d² within a relative linkBand of r² needs the
// root. It is the one range test of the world and its spatial layer.
func linkWithin(p, q geo.Point, r float64) bool {
	dx, dy := q.X-p.X, q.Y-p.Y
	d2, r2 := dx*dx+dy*dy, r*r
	if d2 < r2*(1-linkBand) || d2 > r2*(1+linkBand) {
		return d2 < r2
	}
	return p.Dist(q) <= r
}

// linkBand is the relative width of the band around r² in which linkWithin
// takes the square root.
const linkBand = 1e-9

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

// Neighbors returns the IDs of all nodes sharing a usable link with from
// (failed nodes included — radios cannot see remote faults, protocols
// discover them through failed sends).
//
// With a nil dst the returned slice is owned by the spatial layer's cache:
// it is valid until the clock advances (in a world where anything moves) or
// the topology changes, whichever comes first, and must not be mutated or
// retained across events. Pass a non-nil dst to get an appended copy
// instead.
func (w *World) Neighbors(dst []NodeID, from NodeID) []NodeID {
	nb := w.space.neighbors(from, false)
	if dst == nil {
		return nb
	}
	return append(dst, nb...)
}

// AliveNeighbors returns the IDs of in-range nodes that are alive. The nil-
// dst borrowing contract of Neighbors applies, with one more invalidation
// trigger: any fault injection or battery depletion refreshes the subset.
// While every neighbor is alive the borrowed slice is Neighbors' own.
func (w *World) AliveNeighbors(dst []NodeID, from NodeID) []NodeID {
	alive := w.space.neighbors(from, true)
	if dst == nil {
		return alive
	}
	return append(dst, alive...)
}

// NearestActuator returns the closest non-failed actuator to the node, or
// NoNode if none exists. It scans the actuators only, not the full node
// list. Ties resolve to the lowest ID, matching the world's other tie rules.
func (w *World) NearestActuator(from NodeID) NodeID {
	return w.space.nearestActuator(from)
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
//
// The carrier-sense set is everything inside the sender's own range, failed
// or not: a set, since a max does not depend on the order it is taken in. The
// spatial layer walks it. A transmission that needs its neighbor list fetches
// it before acquiring the radio, so the layer finds the set in that list's
// cache entry instead of scanning for it.
func (w *World) acquireRadio(n *Node, txTime time.Duration) time.Duration {
	end := max(w.Sched.Now(), n.busyUntil) + txTime
	n.busyUntil = end
	w.space.carrierSense(n.ID, end)
	return end
}

// holdOff defers id's transmissions until at least end.
func (w *World) holdOff(id NodeID, end time.Duration) {
	if n := w.nodes[id]; n.busyUntil < end {
		n.busyUntil = end
	}
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
	w.mustAt(at, op.fire)
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
	w.chargeTx(sender, ledger, min(dist, sender.Range))
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
	// Fetched before the radio, so carrier sense reads the filled cache.
	// Neither acquiring the radio nor charging the sender changes a
	// neighbor's aliveness: the sender is not in its own list.
	targets := w.AliveNeighbors(nil, from)
	w.acquireRadio(sender, w.txDelay())
	// Broadcasts transmit at full power: the amplifier covers the whole range.
	w.chargeTx(sender, ledger, sender.Range)
	for _, id := range targets {
		w.chargeRx(w.nodes[id], ledger)
	}
	return len(targets)
}

// FloodVisit is called once per node reached by a flood, with the node
// whose rebroadcast reached it first (the origin for the first hop).
// Returning false stops the flood from rebroadcasting at that node.
type FloodVisit func(at, from NodeID) bool

// flood is the shared state of one in-progress Flood and floodHop one
// rebroadcast of its packet: the neighbors it reached first, received one
// per firing of a single AtN queue entry. Both are pooled on the world with
// their event callbacks bound once at minting, so a flood allocates nothing
// in steady state. seen is the dedup set of every node the flood reached, a
// bitmap over the world's IDs that each flood owns, since floods overlap in
// time; it is all zero while the flood sits in the pool. A pooled hop holds
// no receiver list once that outgrew floodKeep.
type flood struct {
	w           *World
	ttl         int
	ledger      energy.Ledger
	visit       FloodVisit
	onDone      func()
	seen        idBitmap
	outstanding int
	quiesce     func() // fl.finish
}

type floodHop struct {
	fl   *flood
	from NodeID   // the rebroadcasting node
	hops int      // the hop count at every receiver
	to   []NodeID // receivers, in reception order
	next int      // index in to of the next reception
	fire func()   // h.run
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
		fl = &flood{w: w}
		fl.quiesce = fl.finish
	}
	fl.ttl, fl.ledger, fl.visit, fl.onDone = ttl, ledger, visit, onDone
	fl.seen.grow(len(w.nodes))
	fl.seen.set(origin)
	fl.rebroadcast(origin, 0)
	if fl.outstanding == 0 {
		// Nobody in range: quiesce immediately (next tick).
		w.mustAt(w.Sched.Now(), fl.quiesce)
	}
}

// rebroadcast transmits the flood packet from at, which received it after
// hops hops, and schedules one reception per neighbor not reached before:
// one queue entry firing once per receiver. The receptions take consecutive
// sequence numbers at end, as one At each would, since nothing in the loop
// schedules an event.
func (fl *flood) rebroadcast(at NodeID, hops int) {
	w := fl.w
	node := w.nodes[at]
	if !node.Alive() {
		return
	}
	w.tracer.RadioBroadcast()
	targets := w.AliveNeighbors(nil, at) // before the radio, as in Broadcast
	end := w.acquireRadio(node, w.txDelay())
	w.chargeTx(node, fl.ledger, node.Range)
	var h *floodHop
	if n := len(w.hopFree); n > 0 {
		h, w.hopFree = w.hopFree[n-1], w.hopFree[:n-1]
	} else {
		h = &floodHop{}
		h.fire = h.run
	}
	fl.seen.grow(len(w.nodes)) // a node may have joined since the flood began
	// The receiver list is sized for the targets the flood has not reached,
	// not for all of them: most copies a rebroadcast sends are duplicates.
	fresh := 0
	for _, nb := range targets {
		if !fl.seen.has(nb) {
			fresh++
		}
	}
	if cap(h.to) < fresh {
		h.to = make([]NodeID, 0, fresh)
	}
	for _, nb := range targets {
		w.chargeRx(w.nodes[nb], fl.ledger) // every copy is heard
		if fl.seen.has(nb) {
			continue
		}
		fl.seen.set(nb)
		h.to = append(h.to, nb)
	}
	if len(h.to) == 0 {
		w.hopFree = append(w.hopFree, h)
		return
	}
	fl.outstanding += len(h.to)
	h.fl, h.from, h.hops = fl, at, hops+1
	if err := w.Sched.AtN(end, len(h.to), h.fire); err != nil {
		panic(fmt.Sprintf("world: %v", err))
	}
}

// run is one reception: visit, maybe rebroadcast, and quiesce the flood when
// this was its last copy on the air. The hop record is recycled on its last
// reception before the visit — the visitor may start floods of its own.
func (h *floodHop) run() {
	fl, at, from, hops := h.fl, h.to[h.next], h.from, h.hops
	h.next++
	if h.next == len(h.to) {
		h.recycle()
	}
	fl.outstanding--
	cont := true
	if fl.visit != nil {
		cont = fl.visit(at, from)
	}
	if cont && hops < fl.ttl && fl.w.nodes[at].Alive() {
		fl.rebroadcast(at, hops)
	}
	if fl.outstanding == 0 {
		fl.finish()
	}
}

// recycle returns a hop record whose receptions have all fired to the pool.
func (h *floodHop) recycle() {
	w := h.fl.w
	h.fl, h.next = nil, 0
	if cap(h.to) > floodKeep {
		h.to = nil
	} else {
		h.to = h.to[:0]
	}
	w.hopFree = append(w.hopFree, h)
}

// floodKeep bounds the receiver list a pooled hop record keeps. One
// rebroadcast in a dense deployment can reach hundreds of new neighbors, far
// more than later rebroadcasts need, and a kept list would hold that size
// for the rest of the run.
const floodKeep = 256

// finish recycles the flood before running onDone, which may flood again.
func (fl *flood) finish() {
	onDone := fl.onDone
	fl.visit, fl.onDone = nil, nil
	fl.seen.reset()
	fl.w.floodFree = append(fl.w.floodFree, fl)
	if onDone != nil {
		onDone()
	}
}

// BorrowSearch lends the world's path-search table to one synchronous
// search. via, indexed by NodeID, holds a reached node's predecessor + 1 and
// 0 for "not reached"; it is all zero on loan. visit is an empty list the
// search appends every node whose via entry it sets to. The search hands the
// list back through ReturnSearch before it returns, on every path, and keeps
// neither slice. A second borrow before then is a programming error and
// panics. The table grows with the world, so one that never searches holds
// none.
func (w *World) BorrowSearch() (via, visit []NodeID) {
	if w.searching {
		panic("world: path-search table borrowed while already lent")
	}
	w.searching = true
	if n := len(w.nodes); len(w.via) < n {
		w.via = append(w.via, make([]NodeID, n-len(w.via))...)
	}
	return w.via, w.visit[:0]
}

// ReturnSearch ends the loan: it zeroes the via entries visit names, which
// must be every entry the search set, and keeps the list's buffer.
func (w *World) ReturnSearch(visit []NodeID) {
	for _, id := range visit {
		w.via[id] = 0
	}
	w.visit, w.searching = visit[:0], false
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
