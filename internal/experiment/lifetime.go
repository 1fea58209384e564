package experiment

import (
	"context"

	"refer/internal/energy"
	"refer/internal/scenario"
)

// The network-lifetime study (Figures L1–L3) is what the pluggable energy
// layer buys: it constrains every sensor to a battery budget, prices
// packets with the distance-dependent first-order radio model (the
// default; -energy selects others, including the harvesting wrapper), and
// sweeps the budget to compare how long each system keeps the network
// alive. L1 plots the time to the first node death, L2 the time until
// half the constrained nodes are dead at once, and L3 the delivery ratio
// achieved over the network's lifetime — the flood-happy baselines drain
// shared relays far sooner than REFER's unicast Kautz routing. Deaths that
// never happen inside the simulated window are censored at the window end,
// so an undying configuration reports the full simulated time.

// lifetimeXs are the swept per-sensor battery budgets in Joules. Sized for
// the radio model's millijoule-scale packets: at the low end the
// flood-happy systems lose their first node during topology construction,
// while at the high end every system keeps half the network alive through
// a quick pass (REFER stops dying at all from 0.2 J).
var lifetimeXs = []float64{0.05, 0.1, 0.2, 0.4, 0.8}

// lifetimeSweep runs the L1–L3 grid: the four systems at 1 m/s with the
// sensor battery budget on the x axis. The cost model defaults to the
// first-order radio model; Options.Energy (the -energy flag) overrides it.
func lifetimeSweep(ctx context.Context, o Options, pick func(Result) float64) (Figure, error) {
	if o.Energy.IsZero() {
		o.Energy = energy.Spec{Model: energy.ModelRadio}
	}
	o = o.withDefaults()
	fig, err := sweep(ctx, o, lifetimeXs, func(x float64, seed int64) RunConfig {
		return RunConfig{
			Scenario: scenario.Params{
				Seed:          seed,
				Sensors:       o.Sensors,
				MaxSpeed:      1,
				SensorBattery: x,
			},
		}
	}, pick)
	fig.XLabel = "sensor battery (J)"
	return fig, err
}

// censored maps a lifetime marker to seconds, censoring "never" (-1) at
// the end of the simulated window.
func censored(r Result, marker int64) float64 {
	if marker < 0 {
		return r.Stats.SimTime.Seconds()
	}
	// marker is a time.Duration in nanoseconds.
	return float64(marker) / 1e9
}

func lifetimeFirstDeath(ctx context.Context, o Options) (Figure, error) {
	fig, err := lifetimeSweep(ctx, o, func(r Result) float64 {
		return censored(r, int64(r.Stats.FirstNodeDeath))
	})
	fig.YLabel = "first node death (s)"
	return fig, err
}

func lifetimeHalfDead(ctx context.Context, o Options) (Figure, error) {
	fig, err := lifetimeSweep(ctx, o, func(r Result) float64 {
		return censored(r, int64(r.Stats.HalfNodesDead))
	})
	fig.YLabel = "half nodes dead (s)"
	return fig, err
}

func lifetimeDelivery(ctx context.Context, o Options) (Figure, error) {
	fig, err := lifetimeSweep(ctx, o, deliveryRatio)
	fig.YLabel = "delivery ratio"
	return fig, err
}
