// Package recovery implements autonomous repair of actuator failures: the
// self-healing layer ROADMAP item 4 calls for, following the coordinated
// actuator-takeover blueprint of "Self-Recovering Sensor-Actor Networks"
// (PAPERS.md). The chaos subsystem injects faults and Theorem 3.8 failover
// routes around them; this package *repairs* the structural damage a
// permanently dead cell corner leaves behind.
//
// The split of responsibilities keeps the import graph acyclic: this package
// owns the serializable Spec, the Stats counters, the Action records and the
// DES-driven detection loop (the Manager); the protocol-specific repair —
// corner re-election, cell merge and CAN zone takeover — lives behind the
// Repairer interface, implemented by internal/core (recover.go).
//
// Determinism contract: an attached Manager draws nothing from the world's
// RNG stream and schedules one periodic DES tick. A run with a zero Spec
// never attaches a Manager at all, so recovery-disabled runs replay
// byte-identically to builds that predate this package (pinned by
// TestRecoveryDisabledMatchesBaseline and the canonicalization guards).
package recovery

import (
	"fmt"
	"time"

	"refer/internal/world"
)

// Default detection parameters when the Spec enables recovery without
// overriding them: a dead corner must stay dead for one full grace period
// before it is repaired (transient chaos faults heal themselves), and the
// detector sweeps at the same cadence as topology maintenance.
const (
	DefaultGrace         = 5 * time.Second
	DefaultCheckInterval = 5 * time.Second
)

// Spec is the serializable recovery configuration carried by
// experiment.RunConfig/Options. The zero Spec means "recovery disabled" and
// canonicalizes to nothing (append-only ConfigKey contract: every
// pre-existing content address is unchanged).
type Spec struct {
	// Enabled turns the recovery protocols on.
	Enabled bool `json:"enabled,omitempty"`
	// GraceS is how long (virtual seconds) a corner must be observed dead
	// before repair triggers; 0 selects DefaultGrace. Transient faults
	// shorter than the grace period recover on their own and are left alone.
	GraceS float64 `json:"grace_s,omitempty"`
	// CheckIntervalS is the detection sweep period in virtual seconds;
	// 0 selects DefaultCheckInterval.
	CheckIntervalS float64 `json:"check_interval_s,omitempty"`
}

// IsZero reports whether the spec is entirely defaulted (recovery off).
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate rejects malformed specs.
func (s Spec) Validate() error {
	if s.GraceS < 0 {
		return fmt.Errorf("recovery: grace_s must be >= 0, got %g", s.GraceS)
	}
	if s.CheckIntervalS < 0 {
		return fmt.Errorf("recovery: check_interval_s must be >= 0, got %g", s.CheckIntervalS)
	}
	return nil
}

// Grace returns the effective failure-confirmation window.
func (s Spec) Grace() time.Duration {
	if s.GraceS > 0 {
		return time.Duration(s.GraceS * float64(time.Second))
	}
	return DefaultGrace
}

// CheckInterval returns the effective detection sweep period.
func (s Spec) CheckInterval() time.Duration {
	if s.CheckIntervalS > 0 {
		return time.Duration(s.CheckIntervalS * float64(time.Second))
	}
	return DefaultCheckInterval
}

// ActionKind labels one recovery action.
type ActionKind string

const (
	// Reelect promoted a surviving actuator into a vacant Kautz corner.
	Reelect ActionKind = "reelect"
	// Merge retired a cell with no eligible corner successor and moved its
	// members into an absorbing neighbor cell.
	Merge ActionKind = "merge"
	// Takeover remapped a retired cell's CAN zone onto its absorber so
	// hashed lookups keep resolving.
	Takeover ActionKind = "takeover"
)

// Action records one completed recovery action. DetectedAt is the virtual
// time the repaired failure was first observed; RepairedAt is the virtual
// time the repair completed — their difference is the recovery latency the
// R2 figure plots.
type Action struct {
	Kind ActionKind
	// CID is the repaired cell.
	CID int
	// Corner is the repaired corner slot (0–2) for re-elections.
	Corner int
	// NewCorner is the promoted actuator for re-elections.
	NewCorner world.NodeID
	// AbsorberCID is the absorbing cell for merges and takeovers.
	AbsorberCID int
	// DetectedAt and RepairedAt bracket the repair in virtual time.
	DetectedAt time.Duration
	RepairedAt time.Duration
}

// Latency is the virtual time between failure detection and repair.
func (a Action) Latency() time.Duration { return a.RepairedAt - a.DetectedAt }

// Stats counts recovery activity. All fields are deterministic per seeded
// config (latency is virtual time, not host time), so the counters ride
// RunStats without being stripped and replay comparisons may include them.
type Stats struct {
	// Sweeps counts detection sweeps run.
	Sweeps int `json:"sweeps,omitempty"`
	// Reelections, Merges and Takeovers count completed actions by kind.
	Reelections int `json:"reelections,omitempty"`
	Merges      int `json:"merges,omitempty"`
	Takeovers   int `json:"takeovers,omitempty"`
	// LatencyNs accumulates the virtual detection→repair latency of every
	// re-election and merge (takeovers complete in the same instant as
	// their merge and are not double-counted).
	LatencyNs int64 `json:"latency_ns,omitempty"`
}

// Add accumulates another stats block (sweep aggregation).
func (s *Stats) Add(o Stats) {
	s.Sweeps += o.Sweeps
	s.Reelections += o.Reelections
	s.Merges += o.Merges
	s.Takeovers += o.Takeovers
	s.LatencyNs += o.LatencyNs
}

// Repairs returns the number of structural repairs (re-elections + merges).
func (s Stats) Repairs() int { return s.Reelections + s.Merges }

// MeanLatency returns the mean detection→repair latency, or 0 without
// repairs.
func (s Stats) MeanLatency() time.Duration {
	if n := s.Repairs(); n > 0 {
		return time.Duration(s.LatencyNs / int64(n))
	}
	return 0
}

// Repairer is the protocol side of the recovery loop: one detection/repair
// pass over the system's cells. grace is the failure-confirmation window; a
// corner observed dead for at least that long is repaired. The returned
// actions are in the deterministic order they were applied.
type Repairer interface {
	RecoverSweep(grace time.Duration) []Action
}

// Manager drives a Repairer from the DES: a periodic detection tick, per-
// action observation (the conformance harness probes invariants after every
// action through this hook) and stats accumulation.
type Manager struct {
	w        *world.World
	rep      Repairer
	spec     Spec
	stats    Stats
	observer func(Action)
}

// Attach validates the spec and schedules the periodic detection tick on the
// world's scheduler. The spec must be Enabled — callers decide whether to
// attach at all, so a disabled spec here is a programming error.
func Attach(w *world.World, rep Repairer, spec Spec) (*Manager, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Enabled {
		return nil, fmt.Errorf("recovery: attaching a disabled spec")
	}
	m := &Manager{w: w, rep: rep, spec: spec}
	m.schedule()
	return m, nil
}

// SetObserver installs fn to run once after every completed recovery action,
// in action order. Stats, read from inside fn, already counts the running
// sweep and every action up to and including fn's own, but none of the
// sweep's later ones (pinned by TestManagerCountsAndObserves). The
// conformance harness uses it to probe CheckInvariants after each action.
func (m *Manager) SetObserver(fn func(Action)) { m.observer = fn }

// Stats returns a snapshot of the accumulated counters.
func (m *Manager) Stats() Stats { return m.stats }

// schedule arms the next conformance check.
func (m *Manager) schedule() {
	if _, err := m.w.Sched.After(m.spec.CheckInterval(), m.tick); err != nil {
		// Scheduling after "now" can only fail on a programming error.
		panic(err)
	}
}

func (m *Manager) tick() {
	m.Sweep()
	m.schedule()
}

// Sweep runs one detection/repair pass immediately and returns the actions
// applied (tests drive this directly; the scheduled tick calls the same
// routine every CheckInterval).
func (m *Manager) Sweep() []Action {
	actions := m.rep.RecoverSweep(m.spec.Grace())
	m.stats.Sweeps++
	for _, a := range actions {
		switch a.Kind {
		case Reelect:
			m.stats.Reelections++
			m.stats.LatencyNs += int64(a.Latency())
		case Merge:
			m.stats.Merges++
			m.stats.LatencyNs += int64(a.Latency())
		case Takeover:
			m.stats.Takeovers++
		}
		if m.observer != nil {
			m.observer(a)
		}
	}
	return actions
}
