// Package refer is a Go implementation of REFER — the Kautz-based
// REal-time, Fault-tolerant and EneRgy-efficient Wireless Sensor and
// Actuator Network of Li & Shen (ICDCS 2012) — together with the three
// systems the paper evaluates it against (DaTree, D-DEAR and an
// application-layer Kautz overlay), a discrete-event WSAN simulator to run
// them on, and the full evaluation harness that regenerates the paper's
// Figures 4–11.
//
// The package is a facade: the implementation lives under internal/ and the
// most useful types are re-exported here.
//
//	Kautz graph theory     — ID, Graph, Routes (Theorem 3.8), GreedyNext
//	WSAN simulation        — World, ScenarioParams, BuildWorld
//	Systems under test     — System, NewSystem, NewREFER, NewDaTree, …
//	Evaluation             — RunConfig, Run, Options, Figures, BuildFigures
//
// Quick start:
//
//	w := refer.BuildWorld(refer.ScenarioParams{Seed: 1, Sensors: 200})
//	sys := refer.NewREFER(w)
//	if err := sys.Build(); err != nil { … }
//	sys.Inject(srcID, func(ok bool) { … })
//	w.Sched.RunUntil(10 * time.Second)
package refer

import (
	"context"

	"refer/internal/chaos"
	"refer/internal/core"
	"refer/internal/datree"
	"refer/internal/ddear"
	"refer/internal/energy"
	"refer/internal/experiment"
	"refer/internal/kautz"
	"refer/internal/kautzoverlay"
	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

// ---- Kautz graph theory (Section III of the paper) ----

// ID is a Kautz node identifier (digits over {0..d}, no adjacent repeats).
type ID = kautz.ID

// Graph is a fully enumerated Kautz digraph K(d, k).
type Graph = kautz.Graph

// Route is one of the d disjoint U→V paths of Theorem 3.8.
type Route = kautz.Route

// PathClass classifies a Theorem 3.8 route.
type PathClass = kautz.PathClass

// Path classes of Theorem 3.8.
const (
	ClassShortest = kautz.ClassShortest
	ClassConflict = kautz.ClassConflict
	ClassViaV1    = kautz.ClassViaV1
	ClassDetour   = kautz.ClassDetour
)

// NewGraph enumerates K(d, k).
func NewGraph(d, k int) (*Graph, error) { return kautz.New(d, k) }

// ParseID validates a Kautz identifier.
func ParseID(s string) (ID, error) { return kautz.ParseID(s) }

// Routes computes the d disjoint U→V routes of Theorem 3.8 from the IDs
// alone, sorted by path length — REFER's fault-tolerant routing table.
func Routes(d int, u, v ID) ([]Route, error) { return kautz.Routes(d, u, v) }

// GreedyNext returns the next hop of the greedy shortest protocol.
func GreedyNext(u, v ID) (ID, error) { return kautz.GreedyNext(u, v) }

// KautzDistance returns the shortest-path distance k − L(U, V).
func KautzDistance(u, v ID) int { return kautz.Distance(u, v) }

// ---- WSAN simulation substrate ----

// World is the discrete-event WSAN: nodes, radios, mobility, failures.
type World = world.World

// NodeID identifies a node in a World.
type NodeID = world.NodeID

// Node kinds.
const (
	Sensor   = world.Sensor
	Actuator = world.Actuator
)

// ScenarioParams configures the paper's deployment (Section IV): five
// actuators forming four Kautz cells on a 500 m field, N mobile sensors.
type ScenarioParams = scenario.Params

// BuildWorld constructs the evaluation deployment.
func BuildWorld(p ScenarioParams) *World { return scenario.Build(p) }

// SensorIDs lists the sensors of a world built by BuildWorld.
func SensorIDs(w *World) []NodeID { return scenario.SensorIDs(w) }

// ---- The four systems under test ----

// System is the contract shared by REFER and the three baselines.
type System = experiment.System

// Evaluated system names.
const (
	SystemREFER        = experiment.SystemREFER
	SystemDaTree       = experiment.SystemDaTree
	SystemDDEAR        = experiment.SystemDDEAR
	SystemKautzOverlay = experiment.SystemKautzOverlay

	// SystemREFERRecovery is REFER with the self-healing recovery protocols
	// (corner re-election, cell merge, CAN zone takeover) attached — the R
	// figure family's subject arm.
	SystemREFERRecovery = experiment.SystemREFERRecovery
)

// AllSystems lists the four evaluated systems.
func AllSystems() []string { return experiment.AllSystems() }

// NewSystem constructs a named system on w (see the System* constants).
func NewSystem(name string, w *World) (System, error) {
	return experiment.NewSystem(name, w)
}

// REFER is the paper's system, exposing cell and addressing introspection
// beyond the System interface.
type REFER = core.System

// Address is a REFER (CID, KID) node address.
type Address = core.Address

// NewREFER constructs an unbuilt REFER system with the paper's defaults.
func NewREFER(w *World) *REFER { return core.New(w, core.DefaultConfig()) }

// NewREFERWithConfig constructs REFER with an explicit configuration.
func NewREFERWithConfig(w *World, cfg core.Config) *REFER { return core.New(w, cfg) }

// REFERConfig parameterizes a REFER deployment.
type REFERConfig = core.Config

// NewDaTree constructs the tree-based baseline.
func NewDaTree(w *World) *datree.System { return datree.New(w) }

// NewDDEAR constructs the mesh/cluster baseline.
func NewDDEAR(w *World) *ddear.System { return ddear.New(w) }

// NewKautzOverlay constructs the application-layer Kautz overlay baseline.
func NewKautzOverlay(w *World) *kautzoverlay.System { return kautzoverlay.New(w) }

// ---- Evaluation harness (Section IV) ----

// RunConfig describes one simulation run (system, scenario, traffic,
// faults, QoS deadline, optional packet tracing).
type RunConfig = experiment.RunConfig

// Result holds one run's measurements and its RunStats block.
type Result = experiment.Result

// RunStats is the per-run observability block (wall clock, DES events,
// route-table and failover counters, energy ledgers, trace counts).
type RunStats = experiment.RunStats

// Run executes one simulation.
func Run(cfg RunConfig) (Result, error) { return experiment.Run(cfg) }

// RunContext is Run with cancellation: the simulation checks ctx between
// event batches and aborts promptly with ctx.Err().
func RunContext(ctx context.Context, cfg RunConfig) (Result, error) {
	return experiment.RunContext(ctx, cfg)
}

// KnownSystem reports whether name is a constructible system (the four
// evaluated systems plus the registered ablation variants).
func KnownSystem(name string) bool { return experiment.KnownSystem(name) }

// KnownSystems lists every constructible system name, sorted.
func KnownSystems() []string { return experiment.KnownSystems() }

// RunProgress is a virtual-clock progress snapshot of a running simulation.
type RunProgress = experiment.RunProgress

// RunObserved is RunContext that also invokes observe (when non-nil) on the
// calling goroutine after every DES event batch. This is the primitive the
// refer-simd daemon serves runs with.
func RunObserved(ctx context.Context, cfg RunConfig, observe func(RunProgress)) (Result, error) {
	return experiment.RunObserved(ctx, cfg, observe)
}

// ConfigKey returns the content address of a run configuration: the hex
// SHA-256 of its fully-defaulted canonical form. Replay determinism makes
// the key a cache address for the run's wall-clock-stripped Result.
func ConfigKey(cfg RunConfig) (string, error) { return experiment.ConfigKey(cfg) }

// OptionsKey is ConfigKey for a figure build: the content address of
// (figure ID, the options its sweep resolves to), excluding fields that
// cannot change the output (parallelism, progress callbacks).
func OptionsKey(figureID string, o Options) (string, error) {
	return experiment.OptionsKey(figureID, o)
}

// Options scales the figure sweeps (seeds, duration, systems, progress
// reporting, trace sampling).
type Options = experiment.Options

// ProgressEvent reports one finished simulation run of a sweep to
// Options.Progress.
type ProgressEvent = experiment.ProgressEvent

// Figure is a reproduced evaluation figure.
type Figure = experiment.Figure

// SweepStats aggregates the per-run stats of a figure's sweep.
type SweepStats = experiment.SweepStats

// FigureSpec is a registered figure as data: ID, title, kind, and the grid
// and column it plots. Figures naming the same Grid share one sweep.
type FigureSpec = experiment.FigureSpec

// FigureKind classifies registry entries.
type FigureKind = experiment.FigureKind

// Figure kinds.
const (
	KindPaper     = experiment.KindPaper
	KindAblation  = experiment.KindAblation
	KindExtension = experiment.KindExtension
	KindScale     = experiment.KindScale
	KindRecovery  = experiment.KindRecovery
)

// Figures returns every registered figure in presentation order.
func Figures() []FigureSpec { return experiment.Figures() }

// FigureByID looks up a registered figure ("4"…"11", "A1"…"A3", "E1"…"E3",
// "L1"…"L3", "S1"…"S5", "R1"/"R2").
func FigureByID(id string) (FigureSpec, bool) { return experiment.FigureByID(id) }

// BuildFigure builds the registered figure id with the given sweep options.
func BuildFigure(ctx context.Context, id string, o Options) (Figure, error) {
	return experiment.BuildFigure(ctx, id, o)
}

// BuildFigures builds several registered figures with one set of options,
// running each grid once however many of its figures were asked for — the
// paper's eight figures are three sweeps — and hands every figure to each in
// request order as soon as its grid is done.
func BuildFigures(ctx context.Context, ids []string, o Options, each func(Figure) error) error {
	return experiment.BuildFigures(ctx, ids, o, each)
}

// MaxParallelism bounds Options.Parallelism; out-of-range values are
// configuration errors, never silent fallbacks.
const MaxParallelism = experiment.MaxParallelism

// ---- Pluggable energy models ----

// CostModel prices every radio operation: the Joules to transmit or
// receive a packet of the given size over a link of the given length.
// Implementations must be pure functions of their arguments — the replay
// determinism guarantee (and the result cache built on it) depends on
// charges being reproducible. Plug a custom model into a single run via
// ScenarioParams.Energy; the built-in models are also selectable by name
// through RunConfig.Energy / Options.Energy, which canonicalize into
// cache keys.
type CostModel = energy.CostModel

// PaperModel charges the paper's flat per-packet constants (2 J transmit,
// 0.75 J receive), ignoring packet size and link distance. The default.
type PaperModel = energy.PaperModel

// RadioModel is the first-order radio model: electronics cost per bit
// plus amplifier cost growing with d² (free space) or d⁴ (multipath)
// past the crossover distance D0.
type RadioModel = energy.RadioModel

// HarvestingModel wraps any cost model with periodic energy-harvesting
// income and duty-cycled sleep, both driven by DES events.
type HarvestingModel = energy.HarvestingModel

// EnergySpec is the serializable selection of a built-in cost model; the
// zero value means "the paper's flat constants". Set it on
// RunConfig.Energy (one run) or Options.Energy (a whole sweep).
type EnergySpec = energy.Spec

// Built-in cost-model names for EnergySpec.Model.
const (
	EnergyModelPaper      = energy.ModelPaper
	EnergyModelRadio      = energy.ModelRadio
	EnergyModelHarvesting = energy.ModelHarvesting
)

// DefaultEnergyModel returns the paper's flat-cost model.
func DefaultEnergyModel() PaperModel { return energy.DefaultModel() }

// DefaultRadioModel returns the first-order radio model with the
// standard constants (50 nJ/bit electronics, 10 pJ/bit/m² free-space and
// 0.0013 pJ/bit/m⁴ multipath amplifiers).
func DefaultRadioModel() RadioModel { return energy.DefaultRadioModel() }

// ---- Self-healing actuator recovery ----

// RecoverySpec is the serializable recovery configuration: the zero value
// means "recovery disabled" and canonicalizes to nothing, so pre-existing
// config keys are unchanged. Set it on RunConfig.Recovery (one run) or
// Options.Recovery (a whole sweep); SystemREFERRecovery enables it with
// defaults even when the spec is zero.
type RecoverySpec = recovery.Spec

// RecoveryStats counts the recovery actions a run applied (detection
// sweeps, corner re-elections, cell merges, CAN zone takeovers) plus the
// accumulated virtual detection→repair latency. Deterministic per seed.
type RecoveryStats = recovery.Stats

// RecoveryAction records one completed repair.
type RecoveryAction = recovery.Action

// ---- Deterministic fault injection ----

// ChaosSchedule is a deterministic fault campaign: DES-scheduled crash,
// blackout, churn, brownout and link-loss events replayed identically for
// a given seed. Attach one via RunConfig.Chaos (per run) or Options.Chaos
// (sweep-wide).
type ChaosSchedule = chaos.Schedule

// ChaosEvent is one scheduled fault event.
type ChaosEvent = chaos.Event

// ChaosStats counts the fault actions a campaign actually applied.
type ChaosStats = chaos.Stats

// Chaos event kinds.
const (
	ChaosCrash        = chaos.Crash
	ChaosRecover      = chaos.Recover
	ChaosBlackout     = chaos.Blackout
	ChaosActuatorKill = chaos.ActuatorKill
	ChaosChurn        = chaos.Churn
	ChaosBrownout     = chaos.Brownout
	ChaosLinkLoss     = chaos.LinkLoss
)

// ParseChaosSchedule parses and validates a JSON fault schedule (see
// EXPERIMENTS.md for the schema).
func ParseChaosSchedule(data []byte) (*ChaosSchedule, error) { return chaos.Parse(data) }

// LoadChaosSchedule reads a JSON fault schedule from a file.
func LoadChaosSchedule(path string) (*ChaosSchedule, error) { return chaos.Load(path) }

// ---- Packet tracing ----

// TraceRecorder records one run's packet lifecycle and radio events; attach
// it via RunConfig.Trace or sweep-wide via Options.TraceSample.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded packet event.
type TraceEvent = trace.Event

// TraceCounts are the exact (unsampled) trace counters of a run.
type TraceCounts = trace.Counts

// NewTraceRecorder creates a recorder keeping every sampleEvery-th packet's
// event stream; counts are always exact.
func NewTraceRecorder(sampleEvery int) *TraceRecorder { return trace.NewRecorder(sampleEvery) }
