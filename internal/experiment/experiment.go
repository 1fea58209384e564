// Package experiment reproduces the paper's evaluation (Section IV): it
// builds the four systems on identical deployments, drives the traffic
// pattern (every 10 s, 5 random sources send a data burst to their nearby
// actuators), rotates faulty-node sets, applies the 0.6 s QoS deadline, and
// regenerates each of Figures 4–11 as a table of mean ± 95 % CI series.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"time"

	"refer/internal/chaos"
	"refer/internal/core"
	"refer/internal/datree"
	"refer/internal/ddear"
	"refer/internal/energy"
	"refer/internal/kautzoverlay"
	"refer/internal/metrics"
	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

// System is the contract every evaluated WSAN system implements.
type System interface {
	// Build constructs the system's topology on its world, charging the
	// construction energy ledger.
	Build() error
	// Inject routes one sensed-data packet from src to a nearby actuator;
	// done fires exactly once with the outcome.
	Inject(src world.NodeID, done func(ok bool))
}

// System names accepted by NewSystem.
const (
	SystemREFER        = "REFER"
	SystemDaTree       = "DaTree"
	SystemDDEAR        = "D-DEAR"
	SystemKautzOverlay = "Kautz-overlay"

	// Ablated REFER variants (see the ablation study in EXPERIMENTS.md).
	SystemREFERNoFailover    = "REFER/no-failover"
	SystemREFERNoMaintenance = "REFER/no-maintenance"

	// SystemREFERK33 uses K(3,3) cells (d = 3: three disjoint paths per
	// pair) via the generalized embedding — the paper's future work.
	// Needs roughly 300+ sensors for the 33 overlay sensors per cell.
	SystemREFERK33 = "REFER/K(3,3)"

	// SystemREFERRecovery is REFER with the self-healing actuator-recovery
	// protocols attached (internal/recovery + core/recover.go): corner
	// re-election, cell merge and CAN zone takeover. Selecting this system
	// with a zero RunConfig.Recovery enables recovery at its defaults; an
	// explicit spec overrides them. The plain SystemREFER never attaches
	// recovery unless RunConfig.Recovery explicitly enables it.
	SystemREFERRecovery = "REFER/recovery"
)

// AllSystems lists the four evaluated systems in the paper's order.
func AllSystems() []string {
	return []string{SystemREFER, SystemDaTree, SystemDDEAR, SystemKautzOverlay}
}

// systemBuilders maps every accepted system name to its constructor; the
// single source of truth behind NewSystem and KnownSystem.
var systemBuilders = map[string]func(w *world.World) System{
	SystemREFER: func(w *world.World) System { return core.New(w, core.DefaultConfig()) },
	SystemREFERNoFailover: func(w *world.World) System {
		cfg := core.DefaultConfig()
		cfg.DisableFailover = true
		return core.New(w, cfg)
	},
	SystemREFERNoMaintenance: func(w *world.World) System {
		cfg := core.DefaultConfig()
		cfg.DisableMaintenance = true
		return core.New(w, cfg)
	},
	SystemREFERK33: func(w *world.World) System {
		cfg := core.DefaultConfig()
		cfg.Degree = 3
		return core.New(w, cfg)
	},
	// The recovery variant builds a stock REFER system; the recovery manager
	// itself is attached by RunObserved after Build (it needs the run's
	// effective spec, not just the system name).
	SystemREFERRecovery: func(w *world.World) System { return core.New(w, core.DefaultConfig()) },
	SystemDaTree:        func(w *world.World) System { return datree.New(w) },
	SystemDDEAR:         func(w *world.World) System { return ddear.New(w) },
	SystemKautzOverlay:  func(w *world.World) System { return kautzoverlay.New(w) },
}

// NewSystem constructs the named (unbuilt) system on w.
func NewSystem(name string, w *world.World) (System, error) {
	build, ok := systemBuilders[name]
	if !ok {
		return nil, errUnknownSystem(name)
	}
	return build(w), nil
}

func errUnknownSystem(name string) error {
	return fmt.Errorf("experiment: unknown system %q (known: %v)", name, KnownSystems())
}

// KnownSystem reports whether name is accepted by NewSystem — every
// evaluated system, ablated variant and extension. Serving layers use it to
// validate submissions before committing a queue slot.
func KnownSystem(name string) bool {
	_, ok := systemBuilders[name]
	return ok
}

// KnownSystems lists every name accepted by NewSystem in sorted order.
func KnownSystems() []string {
	names := make([]string, 0, len(systemBuilders))
	for name := range systemBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunConfig describes one simulation run.
type RunConfig struct {
	// System selects the protocol under test (see NewSystem).
	System string
	// Scenario is the deployment.
	Scenario scenario.Params
	// Warmup precedes the measurement window (paper: 100 s).
	Warmup time.Duration
	// Duration is the measurement window length (paper: 1000 s).
	Duration time.Duration
	// BurstInterval separates traffic bursts (paper: 10 s).
	BurstInterval time.Duration
	// Sources is the number of random source sensors per burst (paper: 5).
	Sources int
	// PacketsPerSource is the burst size in packets per source — the
	// scaled stand-in for the paper's 1 Mbps data stream (see DESIGN.md).
	PacketsPerSource int
	// PacketSpacing separates a burst's packets at the source.
	PacketSpacing time.Duration
	// FaultCount sensors are failed at any time, re-drawn every
	// FaultRotation with the previous set recovered (paper Section IV-B).
	FaultCount    int
	FaultRotation time.Duration
	// QoSDeadline is the real-time cutoff (paper: 0.6 s).
	QoSDeadline time.Duration
	// Trace, when non-nil, attaches a packet-trace recorder to the run's
	// world: the traced systems (REFER and the Kautz overlay) record every
	// packet's lifecycle (inject → hop → failover-switch → drop/deliver)
	// and the world feeds radio counters. The recorder must be private to
	// this run — it is unsynchronized by design. Nil (the default) leaves
	// the forwarding hot path untouched.
	Trace *trace.Recorder
	// Chaos, when non-nil, compiles the fault schedule onto the run's event
	// queue (see internal/chaos). The injector draws from its own seeded
	// stream, so a nil schedule leaves the run byte-identical to builds
	// without the subsystem. Applied-fault counters land in Stats.Chaos.
	Chaos *chaos.Schedule
	// Energy selects the per-packet cost model (see energy.Spec): the
	// paper's flat constants (the zero value, default), the first-order
	// distance-dependent radio model, or a harvesting wrapper with
	// duty-cycled sleep. The zero value canonicalizes to nothing, so
	// pre-existing ConfigKeys are unchanged. Ignored when
	// Scenario.Energy carries an explicit model.
	Energy energy.Spec
	// Recovery configures the self-healing actuator-recovery protocols
	// (see recovery.Spec): corner re-election, cell merge and CAN zone
	// takeover, driven by a periodic detection sweep on the DES. The zero
	// value attaches nothing — zero extra events, zero RNG draws, and it
	// canonicalizes to nothing so pre-existing ConfigKeys are unchanged.
	// A zero spec on SystemREFERRecovery enables recovery at its defaults.
	// Only REFER variants honor the spec; other systems ignore it (but it
	// still keys the config — a run that requested recovery is a different
	// experiment even where the knob is inert).
	Recovery recovery.Spec
}

// withDefaults fills zero fields with the paper's parameters.
func (c RunConfig) withDefaults() RunConfig {
	if c.System == "" {
		c.System = SystemREFER
	}
	if c.Warmup == 0 {
		c.Warmup = 100 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 1000 * time.Second
	}
	if c.BurstInterval == 0 {
		c.BurstInterval = 10 * time.Second
	}
	if c.Sources == 0 {
		c.Sources = 5
	}
	if c.PacketsPerSource == 0 {
		c.PacketsPerSource = 6
	}
	if c.PacketSpacing == 0 {
		c.PacketSpacing = 20 * time.Millisecond
	}
	if c.FaultRotation == 0 {
		c.FaultRotation = 10 * time.Second
	}
	if c.QoSDeadline == 0 {
		c.QoSDeadline = metrics.DefaultQoSDeadline
	}
	return c
}

// validate rejects a defaulted config no simulation can mean anything for:
// an unknown system, a negative window, count, speed or battery, windows that
// overflow the virtual clock, or a malformed spec. RunObserved and ConfigKey
// both call it, so library, CLI and wire callers meet the same checks.
func (c RunConfig) validate() error {
	if !KnownSystem(c.System) {
		return errUnknownSystem(c.System)
	}
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"Warmup", c.Warmup < 0}, {"Duration", c.Duration < 0},
		{"BurstInterval", c.BurstInterval < 0}, {"PacketSpacing", c.PacketSpacing < 0},
		{"FaultRotation", c.FaultRotation < 0}, {"QoSDeadline", c.QoSDeadline < 0},
		{"Sources", c.Sources < 0}, {"PacketsPerSource", c.PacketsPerSource < 0},
		{"FaultCount", c.FaultCount < 0}, {"Scenario.Sensors", c.Scenario.Sensors < 0},
		{"Scenario.MaxSpeed", c.Scenario.MaxSpeed < 0},
		{"Scenario.SensorBattery", c.Scenario.SensorBattery < 0},
	} {
		if f.neg {
			return fmt.Errorf("experiment: %s must be >= 0", f.name)
		}
	}
	if c.Warmup+c.Duration+drainGrace < 0 {
		return fmt.Errorf("experiment: Warmup + Duration overflow the virtual clock")
	}
	return validateSpecs(c.Chaos, c.Energy, c.Recovery)
}

// validateSpecs checks the three attachable subsystems' configurations, which
// RunConfig and Options carry alike.
func validateSpecs(sched *chaos.Schedule, e energy.Spec, r recovery.Spec) error {
	if sched != nil {
		if err := sched.Validate(); err != nil {
			return err
		}
	}
	if err := e.Validate(); err != nil {
		return err
	}
	return r.Validate()
}

// Result holds one run's measurements.
type Result struct {
	System string
	// Throughput is QoS-guaranteed packets per second.
	Throughput float64
	// MeanQoSDelay is the mean latency of QoS-guaranteed deliveries.
	MeanQoSDelay time.Duration
	// MeanDelay is the mean latency over all deliveries.
	MeanDelay time.Duration
	// CommEnergy and ConstructionEnergy are the two ledgers in Joules.
	CommEnergy         float64
	ConstructionEnergy float64
	// Packet counters within the measurement window.
	Created, Delivered, QoS, Dropped int
	// Stats is the run's observability block: host timing, DES and
	// protocol counters, and (when tracing was on) trace event counts.
	Stats RunStats
}

// TotalEnergy returns construction plus communication energy.
func (r Result) TotalEnergy() float64 { return r.CommEnergy + r.ConstructionEnergy }

// RunStats is the per-run observability block: how the simulation ran, as
// opposed to what it measured. The split is by type. HostStats depends on
// the machine and the moment. WorkStats and SimStats are both pure functions
// of the RunConfig for one binary, but WorkStats says how hard the
// implementation worked — what an optimisation is supposed to change — and
// SimStats what the model did, which no optimisation may move. The three
// halves are embedded in that order, so field access and the JSON encoding
// are those of one flat struct. A new field belongs to exactly one half
// (TestStripWallClockZeroesOnlyHostTiming rejects any other placement).
type RunStats struct {
	HostStats
	WorkStats
	SimStats
}

// HostStats is the host-dependent half of RunStats: it varies between
// replays of the same seed and must never reach a content address.
type HostStats struct {
	// WallClock is the host time the run took; EventsPerSec is the DES
	// event rate over it.
	WallClock    time.Duration `json:"wall_clock_ns"`
	EventsPerSec float64       `json:"events_per_sec"`
}

// WorkStats is the implementation-effort half of RunStats: counters that
// replay bit for bit on one binary, at any sweep parallelism, and that a
// faster implementation of the same model is free to lower. Comparisons
// across two code paths look at SimStats and leave these alone.
type WorkStats struct {
	// DESEvents is the number of discrete events the scheduler executed.
	DESEvents uint64 `json:"des_events"`
	// GridRebuilds counts full spatial-index rebuilds; NeighborRebuilds and
	// NeighborHits count per-node neighborhood recomputations vs queries
	// served from the epoch cache: how hard the world's spatial layer worked.
	GridRebuilds     uint64 `json:"grid_rebuilds"`
	NeighborRebuilds uint64 `json:"neighbor_rebuilds"`
	NeighborHits     uint64 `json:"neighbor_hits"`
	// RouteTableHits counts forwarding decisions whose Theorem 3.8 route set
	// was read from the precomputed route table (REFER and Kautz-overlay
	// runs; zero otherwise). RouteTableMisses counts those computed from the
	// IDs instead: only the Kautz overlay, whose graph can outgrow the table.
	RouteTableHits   int `json:"route_table_hits"`
	RouteTableMisses int `json:"route_table_misses"`
	// MaintainChecks counts cell containment/distance predicate evaluations
	// spent homing sensors (REFER runs; zero otherwise) — the membership
	// maintenance cost the scale figure plots.
	MaintainChecks int `json:"maintain_checks"`
	// MobilityEvals counts the mobility-model evaluations the world made,
	// NeighborCandidates the grid candidates its neighborhood recomputations
	// examined, RelayScans the cell nodes REFER examined picking physical
	// relays for out-of-range overlay links.
	MobilityEvals      uint64 `json:"mobility_evals"`
	NeighborCandidates uint64 `json:"neighbor_candidates"`
	RelayScans         uint64 `json:"relay_scans"`
}

// SimStats is the model half of RunStats: virtual-time results and protocol
// counters that follow from the RunConfig alone, whatever the implementation
// did to compute them.
type SimStats struct {
	// SimTime is the final virtual clock (warmup + duration + grace).
	SimTime time.Duration `json:"sim_time_ns"`
	// FailoverSwitches counts Theorem 3.8 alternate-path decisions.
	FailoverSwitches int `json:"failover_switches"`
	// CommEnergy and ConstructionEnergy repeat the Result ledgers (Joules)
	// so the stats block is self-contained for machine consumers.
	CommEnergy         float64 `json:"comm_energy_j"`
	ConstructionEnergy float64 `json:"construction_energy_j"`
	// Trace holds the exact packet-lifecycle and radio counters when a
	// recorder was attached; zero otherwise.
	Trace trace.Counts `json:"trace"`
	// Chaos holds the applied-fault counters when a chaos schedule was
	// attached; zero otherwise.
	Chaos chaos.Stats `json:"chaos"`
	// FaultInjections/FaultRecoveries count node down/up transitions from
	// every source (RunConfig.FaultCount rotation and chaos schedules);
	// LostSends counts unicasts dropped by the link-loss hook and
	// EnergyDrained sums brownout Joules.
	FaultInjections uint64  `json:"fault_injections"`
	FaultRecoveries uint64  `json:"fault_recoveries"`
	LostSends       uint64  `json:"lost_sends"`
	EnergyDrained   float64 `json:"energy_drained_j"`
	// Lifetime markers under battery-constrained scenarios: FirstNodeDeath
	// and HalfNodesDead latch the virtual times the first constrained node
	// depleted and at which half of them were dead at once (-1 = never —
	// the paper's evaluation runs unconstrained, so both are -1 there).
	// NodeDeaths counts depletion transitions, NodeRevivals
	// harvesting-driven recoveries, and EnergyHarvested sums the banked
	// harvesting income in Joules.
	FirstNodeDeath  time.Duration `json:"first_node_death_ns"`
	HalfNodesDead   time.Duration `json:"half_nodes_dead_ns"`
	NodeDeaths      uint64        `json:"node_deaths"`
	NodeRevivals    uint64        `json:"node_revivals"`
	EnergyHarvested float64       `json:"energy_harvested_j"`
	// Rehomes counts sensors whose cell changed during maintenance (REFER
	// runs; zero otherwise).
	Rehomes int `json:"rehomes"`
	// Recovery holds the self-healing counters when a recovery manager was
	// attached (detection sweeps, re-elections, merges, takeovers and the
	// accumulated virtual detection→repair latency); zero otherwise.
	Recovery recovery.Stats `json:"recovery"`
}

// StripWallClock returns the stats without their host half — what is left
// is a deterministic function of the RunConfig and the binary, so replays
// compare bitwise.
func (s RunStats) StripWallClock() RunStats {
	s.HostStats = HostStats{}
	return s
}

// ErrBuild marks a run whose system could not construct its topology on the
// deployment (System.Build failed) — for REFER, typically a field too sparse
// to embed its cells. Match it with errors.Is; the sparse-deployment figures
// score such a run as zero instead of failing the sweep.
var ErrBuild = errors.New("experiment: building")

// Run executes one simulation and returns its measurements.
func Run(cfg RunConfig) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// desBatch is how many DES events RunContext executes between context
// checks. Large enough that the per-batch overhead is noise, small enough
// that cancellation lands within microseconds of host time.
const desBatch = 8192

// MaxParallelism bounds the parallelism knob (Options.Parallelism and the
// simd wire field): values above it are configuration mistakes, not
// machines, and are rejected at the edge instead of silently spawning that
// many goroutines or falling back to GOMAXPROCS.
const MaxParallelism = 1024

// drainGrace follows the measurement window so in-flight packets from its
// tail can still arrive.
const drainGrace = 2 * time.Second

// RunContext is Run with cancellation: the DES drive loop executes events
// in batches and checks ctx between batches, so a cancelled or expired
// context aborts the run promptly with ctx.Err().
func RunContext(ctx context.Context, cfg RunConfig) (Result, error) {
	return RunObserved(ctx, cfg, nil)
}

// RunProgress snapshots an in-flight run's virtual-clock advance; observers
// receive one after every executed DES batch (see RunObserved).
type RunProgress struct {
	// SimTime is the run's virtual clock; SimEnd is the clock value at
	// which the run completes (warmup + duration + drain grace).
	SimTime time.Duration `json:"sim_time_ns"`
	SimEnd  time.Duration `json:"sim_end_ns"`
	// DESEvents is the number of events executed so far.
	DESEvents uint64 `json:"des_events"`
}

// Fraction returns the run's virtual-clock completion in [0, 1].
func (p RunProgress) Fraction() float64 {
	if p.SimEnd <= 0 {
		return 0
	}
	f := float64(p.SimTime) / float64(p.SimEnd)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// RunObserved is RunContext with an optional per-batch progress observer,
// invoked serially on the calling goroutine after every DES batch (thousands
// of times per second of wall clock for a busy run — throttle in the
// callback if relaying). It is the serving layer's unit of work: the caller
// owns the goroutine and cancels through ctx.
func RunObserved(ctx context.Context, cfg RunConfig, observe func(RunProgress)) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	model, err := cfg.Energy.Build()
	if err != nil {
		return Result{}, err
	}
	if model != nil && cfg.Scenario.Energy == nil {
		cfg.Scenario.Energy = model
		if cfg.Scenario.PacketBits <= 0 {
			cfg.Scenario.PacketBits = cfg.Energy.PacketBits
		}
	}
	w := scenario.Build(cfg.Scenario)
	w.SetTracer(cfg.Trace)
	collector := metrics.NewCollector(cfg.Warmup, cfg.Warmup+cfg.Duration, cfg.QoSDeadline)
	w.SetCollector(collector)
	sys, err := NewSystem(cfg.System, w)
	if err != nil {
		return Result{}, err
	}
	if err := sys.Build(); err != nil {
		return Result{}, fmt.Errorf("%w %s: %w", ErrBuild, cfg.System, err)
	}
	// Self-healing recovery: SystemREFERRecovery with a zero spec runs the
	// defaults; any REFER variant honors an explicitly enabled spec. A zero
	// spec elsewhere attaches nothing — no events, no RNG draws — so those
	// runs replay byte-identically to builds without the subsystem.
	recSpec := cfg.Recovery
	if recSpec.IsZero() && cfg.System == SystemREFERRecovery {
		recSpec = recovery.Spec{Enabled: true}
	}
	var recMgr *recovery.Manager
	if recSpec.Enabled {
		if cs, ok := sys.(*core.System); ok {
			recMgr, err = recovery.Attach(w, cs, recSpec)
			if err != nil {
				return Result{}, err
			}
		}
	}
	var injector *chaos.Injector
	if cfg.Chaos != nil {
		injector, err = chaos.Attach(w, cfg.Chaos)
		if err != nil {
			return Result{}, err
		}
	}

	end := cfg.Warmup + cfg.Duration

	sensors := scenario.SensorIDs(w)
	if len(sensors) == 0 {
		return Result{}, fmt.Errorf("experiment: no sensors")
	}

	// Traffic: every BurstInterval, Sources random alive sensors each emit
	// PacketsPerSource packets toward their nearby actuator.
	var burst func()
	burst = func() {
		now := w.Now()
		if now > end {
			return
		}
		for i := 0; i < cfg.Sources; i++ {
			src := sensors[w.Rand().Intn(len(sensors))]
			if !w.Node(src).Alive() {
				continue
			}
			for p := 0; p < cfg.PacketsPerSource; p++ {
				delay := time.Duration(p) * cfg.PacketSpacing
				src := src
				if _, err := w.Sched.After(delay, func() { sys.Inject(src, nil) }); err != nil {
					panic(err)
				}
			}
		}
		if _, err := w.Sched.After(cfg.BurstInterval, burst); err != nil {
			panic(err)
		}
	}
	if _, err := w.Sched.After(cfg.BurstInterval, burst); err != nil {
		return Result{}, err
	}

	// Fault injection: rotate the faulty sensor set.
	if cfg.FaultCount > 0 {
		var current []world.NodeID
		var rotate func()
		rotate = func() {
			if w.Now() > end {
				return
			}
			for _, id := range current {
				w.SetFailed(id, false)
			}
			current = current[:0]
			for len(current) < cfg.FaultCount && len(current) < len(sensors) {
				id := sensors[w.Rand().Intn(len(sensors))]
				already := false
				for _, c := range current {
					if c == id {
						already = true
						break
					}
				}
				if !already {
					current = append(current, id)
					w.SetFailed(id, true)
				}
			}
			if _, err := w.Sched.After(cfg.FaultRotation, rotate); err != nil {
				panic(err)
			}
		}
		if _, err := w.Sched.After(cfg.FaultRotation, rotate); err != nil {
			return Result{}, err
		}
	}

	// Batched so cancellation is honored mid-simulation.
	simEnd := end + drainGrace
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		more := w.Sched.RunUntilLimit(simEnd, desBatch)
		if observe != nil {
			observe(RunProgress{SimTime: w.Now(), SimEnd: simEnd, DESEvents: w.Sched.Fired()})
		}
		if !more {
			break
		}
	}

	ws := w.Stats()
	stats := RunStats{
		WorkStats: WorkStats{
			DESEvents:          w.Sched.Fired(),
			GridRebuilds:       ws.GridRebuilds,
			NeighborRebuilds:   ws.NeighborRebuilds,
			NeighborHits:       ws.NeighborHits,
			MobilityEvals:      ws.MobilityEvals,
			NeighborCandidates: ws.NeighborCandidates,
		},
		SimStats: SimStats{
			SimTime:            w.Now(),
			CommEnergy:         w.TotalEnergy(energy.Communication),
			ConstructionEnergy: w.TotalEnergy(energy.Construction),
			Trace:              cfg.Trace.Counts(),
			Chaos:              injector.Stats(),
			FaultInjections:    ws.FaultInjections,
			FaultRecoveries:    ws.FaultRecoveries,
			LostSends:          ws.LostSends,
			EnergyDrained:      ws.EnergyDrained,
			FirstNodeDeath:     ws.FirstDeathAt,
			HalfNodesDead:      ws.HalfDeadAt,
			NodeDeaths:         ws.NodeDeaths,
			NodeRevivals:       ws.NodeRevivals,
			EnergyHarvested:    ws.EnergyHarvested,
		},
	}
	stats.WallClock = time.Since(start)
	if secs := stats.WallClock.Seconds(); secs > 0 {
		stats.EventsPerSec = float64(stats.DESEvents) / secs
	}
	if recMgr != nil {
		stats.Recovery = recMgr.Stats()
	}
	switch impl := sys.(type) {
	case *core.System:
		st := impl.Stats()
		stats.RouteTableHits = st.RouteCacheHits
		stats.FailoverSwitches = st.FailoverSwitches
		stats.MaintainChecks = st.MaintainChecks
		stats.Rehomes = st.Rehomes
		stats.RelayScans = st.RelayScans
	case *kautzoverlay.System:
		st := impl.Stats()
		stats.RouteTableHits = st.RouteCacheHits
		stats.RouteTableMisses = st.RouteCacheMisses
		stats.FailoverSwitches = st.FailoverSwitches
	}

	created, delivered, qos, dropped := collector.Counts()
	return Result{
		System:             cfg.System,
		Throughput:         collector.Throughput(),
		MeanQoSDelay:       collector.MeanQoSDelay(),
		MeanDelay:          collector.MeanDelay(),
		CommEnergy:         stats.CommEnergy,
		ConstructionEnergy: stats.ConstructionEnergy,
		Created:            created,
		Delivered:          delivered,
		QoS:                qos,
		Dropped:            dropped,
		Stats:              stats,
	}, nil
}
