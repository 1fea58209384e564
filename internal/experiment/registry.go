package experiment

import (
	"context"
	"fmt"
)

// FigureKind classifies a registry entry.
type FigureKind int

const (
	// KindPaper marks Figures 4–11, the paper's own evaluation.
	KindPaper FigureKind = iota + 1
	// KindAblation marks the REFER component ablations (A1, A2).
	KindAblation
	// KindExtension marks the future-work extension studies (E1–E3).
	KindExtension
	// KindScale marks the network-growth study (S1–S3): multi-thousand-node
	// deployments comparing indexed vs linear-scan cell lookups. Excluded
	// from the default and -extras CLI selections — the 10,000-node points
	// dwarf every other figure's cost — and run explicitly via -fig.
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

// FigureSpec is one registered figure: a stable ID, a display title, a
// kind, and a context-aware builder. Build stamps the figure's ID and
// Title, labels progress events with the ID, and honors ctx cancellation.
type FigureSpec struct {
	ID    string
	Title string
	Kind  FigureKind
	Build func(ctx context.Context, o Options) (Figure, error)
}

// registry lists every figure in presentation order: the paper's Figures
// 4–11, then ablations, then extensions.
var registry = []FigureSpec{
	newSpec("4", "QoS throughput vs node mobility", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := mobilitySweep(ctx, o, func(r Result) float64 { return r.Throughput })
			fig.YLabel = "throughput (pkt/s)"
			return fig, err
		}),
	newSpec("5", "Energy consumed in communication vs node mobility", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := mobilitySweep(ctx, o, func(r Result) float64 { return r.CommEnergy })
			fig.YLabel = "energy (J)"
			return fig, err
		}),
	newSpec("6", "Transmission delay vs number of faulty nodes", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := faultSweep(ctx, o, func(r Result) float64 { return r.MeanQoSDelay.Seconds() * 1000 })
			fig.YLabel = "delay (ms)"
			return fig, err
		}),
	newSpec("7", "QoS throughput vs number of faulty nodes", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := faultSweep(ctx, o, func(r Result) float64 { return r.Throughput })
			fig.YLabel = "throughput (pkt/s)"
			return fig, err
		}),
	newSpec("8", "Transmission delay vs network size", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := populationSweep(ctx, o, scaleXs, func(r Result) float64 { return r.MeanQoSDelay.Seconds() * 1000 })
			fig.YLabel = "delay (ms)"
			return fig, err
		}),
	newSpec("9", "Energy consumed in communication vs network size", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := populationSweep(ctx, o, scaleXs, func(r Result) float64 { return r.CommEnergy })
			fig.YLabel = "energy (J)"
			return fig, err
		}),
	newSpec("10", "Energy consumed in topology construction vs network size", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := populationSweep(ctx, o, scaleXs, func(r Result) float64 { return r.ConstructionEnergy })
			fig.YLabel = "energy (J)"
			return fig, err
		}),
	newSpec("11", "Total energy consumption vs network size", KindPaper,
		func(ctx context.Context, o Options) (Figure, error) {
			fig, err := populationSweep(ctx, o, scaleXs, func(r Result) float64 { return r.TotalEnergy() })
			fig.YLabel = "energy (J)"
			return fig, err
		}),
	newSpec("A1", "Ablation: Theorem 3.8 failover under faults", KindAblation, ablationFailover),
	newSpec("A2", "Ablation: topology maintenance under mobility", KindAblation, ablationMaintenance),
	newSpec("A3", "Ablation: delivery ratio vs churn fault rate", KindAblation, ablationChurn),
	newSpec("E1", "Extension: QoS throughput in sparse deployments", KindExtension, extSparse),
	newSpec("E2", "Extension: delivery ratio in sparse deployments", KindExtension, extSparseDeliveryRatio),
	newSpec("E3", "Extension: K(2,3) vs K(3,3) cells under faults", KindExtension, extDegree),
	newSpec("L1", "Lifetime: time to first node death vs battery budget", KindExtension, lifetimeFirstDeath),
	newSpec("L2", "Lifetime: time to half nodes dead vs battery budget", KindExtension, lifetimeHalfDead),
	newSpec("L3", "Lifetime: delivery ratio over network lifetime vs battery budget", KindExtension, lifetimeDelivery),
	newSpec("S1", "Scale: delivery ratio vs network growth", KindScale, growthDelivery),
	newSpec("S2", "Scale: transmission delay vs network growth", KindScale, growthDelay),
	newSpec("S3", "Scale: membership-maintenance cost vs network growth", KindScale, growthMaintainCost),
	newSpec("S4", "Scale: delivery ratio at the 100k-sensor frontier", KindScale, frontierDelivery),
	newSpec("S5", "Scale: delivery ratio under heavy mobile traffic", KindScale, heavyDelivery),
	newSpec("R1", "Recovery: delivery ratio vs fault intensity", KindRecovery, recoveryDelivery),
	newSpec("R2", "Recovery: repair latency vs fault intensity", KindRecovery, recoveryLatency),
}

// newSpec wraps a builder so the spec's ID labels progress events and the
// returned figure carries the registered ID and title.
func newSpec(id, title string, kind FigureKind, build func(context.Context, Options) (Figure, error)) FigureSpec {
	return FigureSpec{
		ID:    id,
		Title: title,
		Kind:  kind,
		Build: func(ctx context.Context, o Options) (Figure, error) {
			o.figureID = id
			fig, err := build(ctx, o)
			fig.ID, fig.Title = id, title
			return fig, err
		},
	}
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

// BuildFigure runs the registered figure id's builder.
func BuildFigure(ctx context.Context, id string, o Options) (Figure, error) {
	spec, ok := FigureByID(id)
	if !ok {
		return Figure{}, fmt.Errorf("experiment: unknown figure %q", id)
	}
	return spec.Build(ctx, o)
}
