// Package chaos is the simulator's deterministic fault-injection
// subsystem: a declarative schedule of typed fault events — node crashes
// and recoveries, correlated regional blackouts, actuator kills, churn
// bursts, energy brownouts, transient link degradation — compiled onto the
// discrete-event queue of a world.
//
// Determinism is the design constraint everything else bends around. The
// injector draws every random decision (churn inter-arrival times, churn
// victim selection) from its own rand.Rand seeded by the schedule, never
// from the world's stream, so attaching a schedule perturbs the simulation
// only through the faults themselves: two runs of the same seed and the
// same schedule replay byte-identically, and a run with no schedule is
// byte-identical to a build without this package.
//
// On top of the injector, Harness (see invariants.go) turns any of the
// evaluated systems into a conformance subject: it re-checks the
// simulator-wide invariants (packet conservation, exact energy accounting)
// and the system's own structural invariants after every fault event and
// at run end.
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"refer/internal/geo"
	"refer/internal/world"
)

// EventKind names a fault type.
type EventKind string

const (
	// Crash fails one sensor (Node indexes the world's sensors). A positive
	// Duration schedules the matching recovery; zero is permanent.
	Crash EventKind = "crash"
	// Recover clears one sensor's crash (one source; crashes refcount).
	Recover EventKind = "recover"
	// Blackout fails every node — sensors and actuators — within Radius
	// meters of (X, Y) at the event time, recovering them after Duration
	// (zero: permanent). Models a correlated regional failure.
	Blackout EventKind = "blackout"
	// ActuatorKill fails one actuator (Node indexes the world's actuators).
	// A positive Duration schedules the recovery; zero is permanent.
	ActuatorKill EventKind = "actuator-kill"
	// Churn runs a crash burst: for Duration, sensors crash at Poisson rate
	// Rate (crashes per second), each recovering Downtime later.
	Churn EventKind = "churn"
	// Brownout drains Fraction of each sensor's remaining battery through
	// the meter's drain ledger; with Radius > 0 only sensors within Radius
	// of (X, Y) are hit.
	Brownout EventKind = "brownout"
	// LinkLoss sets the world's transient link-degradation probability to
	// Probability for Duration (zero: for the rest of the run).
	LinkLoss EventKind = "link-loss"
)

// Duration is a time.Duration that unmarshals from either a Go duration
// string ("90s", "2m30s") or a bare JSON number of seconds.
type Duration time.Duration

// D returns the value as a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("chaos: bad duration %s: %w", b, err)
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Event is one declarative fault. Only the fields its Kind documents are
// meaningful; Validate rejects events whose required fields are missing.
type Event struct {
	Kind EventKind `json:"kind"`
	// At is the virtual time the fault fires.
	At Duration `json:"at"`
	// Node indexes the world's sensor list (crash, recover) or actuator
	// list (actuator-kill), taken modulo the list length so schedules are
	// portable across deployment sizes.
	Node int `json:"node,omitempty"`
	// X, Y, Radius delimit a region (blackout; optional for brownout).
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Duration is the fault's length: blackout/crash/actuator-kill/link-loss
	// recovery delay, or the churn window.
	Duration Duration `json:"duration,omitempty"`
	// Rate is the churn crash rate in crashes per second.
	Rate float64 `json:"rate,omitempty"`
	// Downtime is the per-victim churn recovery delay.
	Downtime Duration `json:"downtime,omitempty"`
	// Fraction is the brownout drain fraction of remaining charge in (0, 1].
	Fraction float64 `json:"fraction,omitempty"`
	// Probability is the link-loss probability in [0, 1].
	Probability float64 `json:"probability,omitempty"`
}

// Schedule is a full fault campaign: a seed for the injector's private
// random stream plus the event list. Events firing at the same virtual
// time apply in list order.
type Schedule struct {
	Seed   int64   `json:"seed"`
	Events []Event `json:"events"`
}

// Validate checks every event's required fields.
func (s *Schedule) Validate() error {
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative time %v", i, ev.Kind, ev.At.D())
		}
		switch ev.Kind {
		case Crash, Recover, ActuatorKill:
			// Node is taken modulo the population; any value is legal.
		case Blackout:
			if ev.Radius <= 0 {
				return fmt.Errorf("chaos: event %d (blackout): radius must be positive", i)
			}
		case Churn:
			if ev.Rate <= 0 {
				return fmt.Errorf("chaos: event %d (churn): rate must be positive", i)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("chaos: event %d (churn): duration must be positive", i)
			}
			if ev.Downtime <= 0 {
				return fmt.Errorf("chaos: event %d (churn): downtime must be positive", i)
			}
		case Brownout:
			if ev.Fraction <= 0 || ev.Fraction > 1 {
				return fmt.Errorf("chaos: event %d (brownout): fraction %v outside (0, 1]", i, ev.Fraction)
			}
		case LinkLoss:
			if ev.Probability < 0 || ev.Probability > 1 {
				return fmt.Errorf("chaos: event %d (link-loss): probability %v outside [0, 1]", i, ev.Probability)
			}
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Parse decodes and validates a JSON schedule.
func Parse(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parsing schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a schedule file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return Parse(data)
}

// Stats counts the faults an injector actually applied. It is comparable,
// so replay tests assert equality across runs.
type Stats struct {
	// Events counts top-level schedule events fired.
	Events int `json:"events"`
	// Crashes and Recoveries count node down/up transitions from any
	// source (crash, blackout, actuator-kill, churn); overlapping sources
	// are refcounted, so a node crashes once no matter how many faults
	// cover it.
	Crashes    int `json:"crashes"`
	Recoveries int `json:"recoveries"`
	// ChurnCrashes counts churn victims (a subset of Crashes).
	ChurnCrashes int `json:"churn_crashes"`
	// ActuatorKills counts actuator-kill events that downed their target.
	ActuatorKills int `json:"actuator_kills"`
	// BlackoutNodes counts nodes caught in blackout regions.
	BlackoutNodes int `json:"blackout_nodes"`
	// Brownouts counts brownout events; DrainedJoules sums their yield.
	Brownouts     int     `json:"brownouts"`
	DrainedJoules float64 `json:"drained_joules"`
	// LossWindows counts link-loss events applied.
	LossWindows int `json:"loss_windows"`
}

// Add accumulates other into s, so sweeps aggregate stats across runs.
func (s *Stats) Add(other Stats) {
	s.Events += other.Events
	s.Crashes += other.Crashes
	s.Recoveries += other.Recoveries
	s.ChurnCrashes += other.ChurnCrashes
	s.ActuatorKills += other.ActuatorKills
	s.BlackoutNodes += other.BlackoutNodes
	s.Brownouts += other.Brownouts
	s.DrainedJoules += other.DrainedJoules
	s.LossWindows += other.LossWindows
}

// Injector applies a schedule's events to one world. Create with Attach.
type Injector struct {
	w         *world.World
	rng       *rand.Rand
	sensors   []world.NodeID
	actuators []world.NodeID
	// downed refcounts this injector's crash sources per node, so
	// overlapping faults (a churn victim inside a blackout) recover the
	// node only when the last source clears.
	downed   map[world.NodeID]int
	observer func(kind EventKind)
	stats    Stats
}

// Attach validates the schedule and compiles its events onto w's event
// queue. It must be called before the run starts (events in the past are
// rejected by the scheduler). The injector is inert afterwards — all work
// happens inside scheduled callbacks.
func Attach(w *world.World, s *Schedule) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		w:      w,
		rng:    rand.New(rand.NewSource(s.Seed)),
		downed: make(map[world.NodeID]int),
	}
	for _, n := range w.Nodes() {
		if n.Kind == world.Actuator {
			inj.actuators = append(inj.actuators, n.ID)
		} else {
			inj.sensors = append(inj.sensors, n.ID)
		}
	}
	for _, ev := range s.Events {
		ev := ev
		if _, err := w.Sched.At(ev.At.D(), func() { inj.apply(ev) }); err != nil {
			return nil, fmt.Errorf("chaos: scheduling %s at %v: %w", ev.Kind, ev.At.D(), err)
		}
	}
	return inj, nil
}

// Stats returns the applied-fault counters. Safe on a nil injector (runs
// without chaos report zeros).
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}

// SetObserver registers a callback fired after every applied fault action
// — each schedule event, each churn crash, and each delayed recovery. The
// conformance harness hooks it to check invariants at exactly the moments
// the world changes underneath the system.
func (inj *Injector) SetObserver(fn func(kind EventKind)) {
	if inj != nil {
		inj.observer = fn
	}
}

func (inj *Injector) notify(kind EventKind) {
	if inj.observer != nil {
		inj.observer(kind)
	}
}

func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case Crash:
		id := inj.sensor(ev.Node)
		if id != world.NoNode {
			inj.down(id)
			inj.delayedRecovery([]world.NodeID{id}, ev.Duration)
		}
	case Recover:
		if id := inj.sensor(ev.Node); id != world.NoNode {
			inj.up(id)
		}
	case ActuatorKill:
		id := inj.actuator(ev.Node)
		if id != world.NoNode {
			inj.down(id)
			inj.stats.ActuatorKills++
			inj.delayedRecovery([]world.NodeID{id}, ev.Duration)
		}
	case Blackout:
		center := geo.Point{X: ev.X, Y: ev.Y}
		var hit []world.NodeID
		for _, n := range inj.w.Nodes() {
			if inj.w.Position(n.ID).Dist(center) <= ev.Radius {
				hit = append(hit, n.ID)
				inj.down(n.ID)
			}
		}
		inj.stats.BlackoutNodes += len(hit)
		inj.delayedRecovery(hit, ev.Duration)
	case Churn:
		inj.churnArrival(ev, inj.w.Now()+ev.Duration.D())
	case Brownout:
		center := geo.Point{X: ev.X, Y: ev.Y}
		for _, id := range inj.sensors {
			if ev.Radius > 0 && inj.w.Position(id).Dist(center) > ev.Radius {
				continue
			}
			inj.stats.DrainedJoules += inj.w.DrainBattery(id, ev.Fraction)
		}
		inj.stats.Brownouts++
	case LinkLoss:
		inj.w.SetLinkLoss(ev.Probability)
		inj.stats.LossWindows++
		if ev.Duration > 0 {
			inj.mustAfter(ev.Duration.D(), func() {
				inj.w.SetLinkLoss(0)
				inj.notify(LinkLoss)
			})
		}
	}
	inj.stats.Events++
	inj.notify(ev.Kind)
}

// churnArrival crashes one Poisson-drawn victim and schedules the next
// arrival; arrivals past the window end stop the burst. The victim draw
// always consumes exactly one rng value, hit or miss, so the stream stays
// aligned regardless of which nodes happen to be down.
func (inj *Injector) churnArrival(ev Event, windowEnd time.Duration) {
	gap := time.Duration(inj.rng.ExpFloat64() / ev.Rate * float64(time.Second))
	next := inj.w.Now() + gap
	if next > windowEnd || len(inj.sensors) == 0 {
		return
	}
	inj.mustAfter(gap, func() {
		victim := inj.sensors[inj.rng.Intn(len(inj.sensors))]
		if inj.downed[victim] == 0 && inj.w.Node(victim).Alive() {
			inj.down(victim)
			inj.stats.ChurnCrashes++
			inj.delayedRecovery([]world.NodeID{victim}, ev.Downtime)
			inj.notify(Churn)
		}
		inj.churnArrival(ev, windowEnd)
	})
}

// down fails a node on its first covering fault source.
func (inj *Injector) down(id world.NodeID) {
	inj.downed[id]++
	if inj.downed[id] == 1 {
		inj.w.SetFailed(id, true)
		inj.stats.Crashes++
	}
}

// up clears one fault source; the node recovers when the last one clears.
func (inj *Injector) up(id world.NodeID) {
	if inj.downed[id] == 0 {
		return
	}
	inj.downed[id]--
	if inj.downed[id] == 0 {
		inj.w.SetFailed(id, false)
		inj.stats.Recoveries++
	}
}

// delayedRecovery schedules the group's recovery after d; zero means the
// fault is permanent.
func (inj *Injector) delayedRecovery(ids []world.NodeID, d Duration) {
	if d <= 0 || len(ids) == 0 {
		return
	}
	inj.mustAfter(d.D(), func() {
		for _, id := range ids {
			inj.up(id)
		}
		inj.notify(Recover)
	})
}

// mustAfter schedules on the world's queue. A failure here is a programming
// error (negative delays are coerced by the scheduler).
func (inj *Injector) mustAfter(d time.Duration, fn func()) {
	if _, err := inj.w.Sched.After(d, fn); err != nil {
		panic(err)
	}
}

// sensor resolves a schedule's sensor index (modulo the population).
func (inj *Injector) sensor(i int) world.NodeID {
	if len(inj.sensors) == 0 {
		return world.NoNode
	}
	return inj.sensors[((i%len(inj.sensors))+len(inj.sensors))%len(inj.sensors)]
}

// actuator resolves a schedule's actuator index (modulo the population).
func (inj *Injector) actuator(i int) world.NodeID {
	if len(inj.actuators) == 0 {
		return world.NoNode
	}
	return inj.actuators[((i%len(inj.actuators))+len(inj.actuators))%len(inj.actuators)]
}
