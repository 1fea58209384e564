package experiment

import (
	"context"
	"fmt"
	"time"

	"refer/internal/energy"
	"refer/internal/scenario"
)

// FigureKind classifies a registry entry.
type FigureKind int

const (
	// KindPaper marks Figures 4–11, the paper's own evaluation.
	KindPaper FigureKind = iota + 1
	// KindAblation marks the REFER component ablations (A1–A3).
	KindAblation
	// KindExtension marks the future-work extension studies (E1–E3) and the
	// network-lifetime study (L1–L3).
	KindExtension
	// KindScale marks the network-growth study (S1–S5): REFER on
	// multi-thousand-node deployments. Excluded from the default and -extras
	// CLI selections — the 10,000-node points dwarf every other figure's
	// cost — and run explicitly via -fig.
	KindScale
	// KindRecovery marks the self-healing study (R1–R2): actuator-kill
	// campaigns comparing REFER with the recovery protocols against REFER
	// without and the baselines. Excluded from the default and -extras CLI
	// selections like KindScale — run explicitly via -fig; their committed
	// CSVs are byte-compared by TestGoldenFigureCSV.
	KindRecovery
)

// String returns the kind's lower-case name.
func (k FigureKind) String() string {
	switch k {
	case KindPaper:
		return "paper"
	case KindAblation:
		return "ablation"
	case KindExtension:
		return "extension"
	case KindScale:
		return "scale"
	case KindRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("FigureKind(%d)", int(k))
	}
}

// FigureSpec is one registered figure, as data: a stable ID, a display title,
// a kind, and which column of which grid it plots. Figures naming the same
// Grid are projections of one sweep (BuildFigures runs it once for all).
type FigureSpec struct {
	ID     string
	Title  string
	Kind   FigureKind
	Grid   string
	Column string
}

// registry lists every figure in presentation order: the paper's Figures
// 4–11, then ablations, extensions, the scale and the recovery studies.
var registry = []FigureSpec{
	{"4", "QoS throughput vs node mobility", KindPaper, "mobility", "throughput"},
	{"5", "Energy consumed in communication vs node mobility", KindPaper, "mobility", "comm-energy"},
	{"6", "Transmission delay vs number of faulty nodes", KindPaper, "faults", "qos-delay"},
	{"7", "QoS throughput vs number of faulty nodes", KindPaper, "faults", "throughput"},
	{"8", "Transmission delay vs network size", KindPaper, "population", "qos-delay"},
	{"9", "Energy consumed in communication vs network size", KindPaper, "population", "comm-energy"},
	{"10", "Energy consumed in topology construction vs network size", KindPaper, "population", "construction-energy"},
	{"11", "Total energy consumption vs network size", KindPaper, "population", "total-energy"},
	{"A1", "Ablation: Theorem 3.8 failover under faults", KindAblation, "A1", "throughput"},
	{"A2", "Ablation: topology maintenance under mobility", KindAblation, "A2", "throughput"},
	{"A3", "Ablation: delivery ratio vs churn fault rate", KindAblation, "A3", "delivery-ratio"},
	{"E1", "Extension: QoS throughput in sparse deployments", KindExtension, "density", "throughput"},
	{"E2", "Extension: delivery ratio in sparse deployments", KindExtension, "density", "delivery-ratio"},
	{"E3", "Extension: K(2,3) vs K(3,3) cells under faults", KindExtension, "E3", "throughput"},
	{"L1", "Lifetime: time to first node death vs battery budget", KindExtension, "lifetime", "first-death"},
	{"L2", "Lifetime: time to half nodes dead vs battery budget", KindExtension, "lifetime", "half-dead"},
	{"L3", "Lifetime: delivery ratio over network lifetime vs battery budget", KindExtension, "lifetime", "delivery-ratio"},
	{"S1", "Scale: delivery ratio vs network growth", KindScale, "growth", "delivery-ratio"},
	{"S2", "Scale: transmission delay vs network growth", KindScale, "growth", "delay"},
	{"S3", "Scale: membership-maintenance cost vs network growth", KindScale, "growth", "maintain-checks"},
	{"S4", "Scale: delivery ratio at the 100k-sensor frontier", KindScale, "S4", "delivery-ratio"},
	{"S5", "Scale: delivery ratio under heavy mobile traffic", KindScale, "S5", "delivery-ratio"},
	{"R1", "Recovery: delivery ratio vs fault intensity", KindRecovery, "R1", "delivery-ratio"},
	{"R2", "Recovery: repair latency vs fault intensity", KindRecovery, "R2", "repair-latency"},
}

// column is one projection of a Result onto a figure's y axis. Every column
// maps the zero Result — a run that could not build — to exactly 0.
type column struct {
	yLabel string
	value  func(Result) float64
}

var columns = map[string]column{
	"throughput":          {"throughput (pkt/s)", func(r Result) float64 { return r.Throughput }},
	"qos-delay":           {"delay (ms)", func(r Result) float64 { return r.MeanQoSDelay.Seconds() * 1000 }},
	"delay":               {"delay (ms)", func(r Result) float64 { return r.MeanDelay.Seconds() * 1000 }},
	"comm-energy":         {"energy (J)", func(r Result) float64 { return r.CommEnergy }},
	"construction-energy": {"energy (J)", func(r Result) float64 { return r.ConstructionEnergy }},
	"total-energy":        {"energy (J)", Result.TotalEnergy},
	// The fraction of created packets that reached an actuator at all (no
	// deadline).
	"delivery-ratio": {"delivery ratio", func(r Result) float64 {
		if r.Created == 0 {
			return 0
		}
		return float64(r.Delivered) / float64(r.Created)
	}},
	"first-death":     {"first node death (s)", func(r Result) float64 { return censored(r, r.Stats.FirstNodeDeath) }},
	"half-dead":       {"half nodes dead (s)", func(r Result) float64 { return censored(r, r.Stats.HalfNodesDead) }},
	"maintain-checks": {"cell predicate evaluations", func(r Result) float64 { return float64(r.Stats.MaintainChecks) }},
	"repair-latency": {"mean repair latency (ms)", func(r Result) float64 {
		return r.Stats.Recovery.MeanLatency().Seconds() * 1000
	}},
}

// grid is one sweep definition: the x axis, the arms and the per-run config
// of the systems × xs × seeds cross product a family of figures is read from,
// plus the grid's own defaults for Options fields the caller left unset.
type grid struct {
	xLabel string
	xs     []float64
	// systems are the grid's arms. Forced, they replace Options.Systems (an
	// ablation pair is the figure); otherwise they are the default when the
	// caller names none, nil meaning the generic default of all four.
	systems      []string
	forceSystems bool
	// seeds, warmup, duration and energy default the unset Options fields
	// before the generic defaults apply.
	seeds            []int64
	warmup, duration time.Duration
	energy           energy.Spec
	// buildFailureIsZero scores a run whose system cannot construct its
	// topology (ErrBuild) as the zero Result instead of failing the sweep:
	// in the sparse-deployment study the density threshold is the finding.
	buildFailureIsZero bool
	// configure returns the run at sweep position x for one seed, given the
	// resolved options; sweep then applies the system and the overrides.
	configure func(o Options, x float64, seed int64) RunConfig
}

// resolve returns the options g's sweep actually runs: the grid's own
// defaults, then the generic ones. sweep and the key functions both go
// through it, so a content address hashes exactly what will execute.
func (g grid) resolve(o Options) Options {
	if g.forceSystems || len(o.Systems) == 0 {
		o.Systems = g.systems
	}
	if len(o.Seeds) == 0 {
		o.Seeds = g.seeds
	}
	if o.Warmup == 0 {
		o.Warmup = g.warmup
	}
	if o.Duration == 0 {
		o.Duration = g.duration
	}
	if o.Energy.IsZero() {
		o.Energy = g.energy
	}
	return o.withDefaults()
}

// The sweep positions of the paper's three experiments.
var (
	// mobilityXs: node speed drawn from [0, 2x] m/s, plotted at the mean x.
	mobilityXs = []float64{0.5, 1.0, 1.5, 2.0, 2.5}
	// faultXs: the faulty-node counts 2x, x ∈ [1,5].
	faultXs = []float64{2, 4, 6, 8, 10}
)

// The full-length paper windows would make a 10,000-node sweep take hours, so
// the S grids default unset windows to a short measured slice (the growth
// curves compare configurations, not absolute paper numbers).
const (
	scaleWarmup   = 20 * time.Second
	scaleDuration = 60 * time.Second
)

const recoveryXLabel = "fault intensity (churn rate, crashes/s; +1+10x permanent actuator kills)"

// grids holds every sweep definition by the name figure rows refer to it by:
// the paper's three experiments, then one grid per study.
var grids = map[string]grid{
	"mobility": {xLabel: "mean speed (m/s)", xs: mobilityXs, configure: mobilityConfig},
	"faults":   {xLabel: "faulty nodes", xs: faultXs, configure: faultConfig},
	// The paper's network sizes, at 1.5 m/s.
	"population": {xLabel: "sensors", xs: []float64{100, 200, 300, 400}, configure: populationConfig},
	// A1 quantifies Theorem 3.8's contribution: REFER with and without the
	// alternate-path failover over Figure 7's fault counts. Without failover
	// a relay drops the packet the moment its greedy shortest successor fails.
	"A1": {xLabel: "faulty nodes", xs: faultXs, configure: faultConfig,
		systems: []string{SystemREFER, SystemREFERNoFailover}, forceSystems: true},
	// A2 quantifies the awake/wait/sleep replacement scheme: REFER with and
	// without topology maintenance over Figure 4's speeds. Without maintenance
	// the embedding decays as overlay sensors drift out of their cells.
	"A2": {xLabel: "mean speed (m/s)", xs: mobilityXs, configure: mobilityConfig,
		systems: []string{SystemREFER, SystemREFERNoMaintenance}, forceSystems: true},
	"A3": {xLabel: "churn rate (crashes/s)", xs: churnXs, configure: churnConfig},
	// The population sweep at the sparse sizes the paper's conclusion lists as
	// future work. REFER's embedding needs roughly a dozen viable sensors per
	// cell (Prop. 3.2); a deployment too sparse to form the cells scores zero.
	"density": {xLabel: "sensors", xs: []float64{60, 100, 140, 200}, configure: populationConfig,
		buildFailureIsZero: true},
	"E3": {xLabel: "faulty nodes", xs: []float64{2, 6, 10, 14, 18}, configure: degreeConfig,
		systems: []string{SystemREFER, SystemREFERK33}, forceSystems: true},
	// The sensor battery budget in Joules on the x axis, priced by the
	// first-order radio model unless Options.Energy (-energy) names another.
	"lifetime": {xLabel: "sensor battery (J)", xs: lifetimeXs, configure: lifetimeConfig,
		energy: energy.Spec{Model: energy.ModelRadio}},
	// REFER over growing deployments (Options.Systems adds other arms).
	"growth": {xLabel: "sensors", xs: []float64{1000, 2000, 5000, 10000}, configure: growthConfig,
		systems: []string{SystemREFER}, warmup: scaleWarmup, duration: scaleDuration},
	// The frontier grids: one seed, because each point is a single giant run
	// — serial inside, with sweep-level parallelism across the points.
	"S4": {xLabel: "sensors", xs: []float64{20000, 50000, 100000}, configure: growthConfig,
		systems: []string{SystemREFER}, seeds: []int64{1}, warmup: scaleWarmup, duration: scaleDuration},
	// Large enough that per-hop neighbor-cache rebuilds dominate the run,
	// small enough to finish without the 100k point's hours.
	"S5": {xLabel: "sensors", xs: []float64{20000, 50000}, configure: heavyConfig,
		systems: []string{SystemREFER}, seeds: []int64{1}, warmup: scaleWarmup, duration: scaleDuration},
	// REFER/recovery leads the series list so the with/without contrast
	// reads straight off adjacent CSV columns.
	"R1": {xLabel: recoveryXLabel, xs: recoveryXs, configure: recoveryConfig, forceSystems: true,
		systems: []string{SystemREFERRecovery, SystemREFER, SystemDaTree, SystemDDEAR, SystemKautzOverlay}},
	"R2": {xLabel: recoveryXLabel, xs: recoveryXs, configure: recoveryConfig, forceSystems: true,
		systems: []string{SystemREFERRecovery}},
}

// mobilityConfig is the Figure 4/5 run: speed drawn from [0, 2x] m/s.
func mobilityConfig(o Options, x float64, seed int64) RunConfig {
	return RunConfig{Scenario: scenario.Params{Seed: seed, Sensors: o.Sensors, MaxSpeed: 2 * x}}
}

// faultConfig is the Figure 6/7 run: x faulty sensors at 1 m/s.
func faultConfig(o Options, x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario:   scenario.Params{Seed: seed, Sensors: o.Sensors, MaxSpeed: 1},
		FaultCount: int(x),
	}
}

// populationConfig is the Figure 8–11 run: x sensors at 1.5 m/s.
func populationConfig(_ Options, x float64, seed int64) RunConfig {
	return RunConfig{Scenario: scenario.Params{Seed: seed, Sensors: int(x), MaxSpeed: 1.5}}
}

// Figures returns every registered figure in presentation order. The slice
// is a copy; callers may reorder or filter it freely.
func Figures() []FigureSpec {
	return append([]FigureSpec(nil), registry...)
}

// FigureByID looks up a registered figure by its ID (e.g. "7", "A1", "E2").
func FigureByID(id string) (FigureSpec, bool) {
	for _, spec := range registry {
		if spec.ID == id {
			return spec, true
		}
	}
	return FigureSpec{}, false
}

// figureSpec is FigureByID for callers that report an unknown ID as an error.
func figureSpec(id string) (FigureSpec, error) {
	spec, ok := FigureByID(id)
	if !ok {
		return FigureSpec{}, fmt.Errorf("experiment: unknown figure %q", id)
	}
	return spec, nil
}

// BuildTable runs the sweep behind the registered figure id once and returns
// every run's Result; each figure of the same grid is then Table.Figure away.
func BuildTable(ctx context.Context, id string, o Options) (Table, error) {
	spec, err := figureSpec(id)
	if err != nil {
		return Table{}, err
	}
	return sweep(ctx, id, grids[spec.Grid], o)
}

// BuildFigures builds the registered figures ids with one set of options,
// running each grid once however many of its figures were asked for, and
// hands every figure to each in request order as soon as its grid is done.
// It stops at the first failed or cancelled sweep, or the first error each
// returns.
func BuildFigures(ctx context.Context, ids []string, o Options, each func(Figure) error) error {
	specs := make([]FigureSpec, len(ids))
	for i, id := range ids {
		var err error
		if specs[i], err = figureSpec(id); err != nil {
			return err
		}
	}
	tables := make(map[string]Table)
	for _, spec := range specs {
		table, ok := tables[spec.Grid]
		if !ok {
			var err error
			if table, err = BuildTable(ctx, spec.ID, o); err != nil {
				return err
			}
			tables[spec.Grid] = table
		}
		if err := each(table.Figure(spec)); err != nil {
			return err
		}
	}
	return nil
}

// BuildFigure builds the registered figure id alone.
func BuildFigure(ctx context.Context, id string, o Options) (Figure, error) {
	var fig Figure
	err := BuildFigures(ctx, []string{id}, o, func(f Figure) error {
		fig = f
		return nil
	})
	return fig, err
}
