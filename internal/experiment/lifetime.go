package experiment

import (
	"time"

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

// lifetimeConfig is the L1–L3 run: 1 m/s with a sensor battery budget of x
// Joules.
func lifetimeConfig(o Options, x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario: scenario.Params{
			Seed:          seed,
			Sensors:       o.Sensors,
			MaxSpeed:      1,
			SensorBattery: x,
		},
	}
}

// censored maps a lifetime marker to seconds, censoring "never" (-1) at
// the end of the simulated window.
func censored(r Result, marker time.Duration) float64 {
	if marker < 0 {
		return r.Stats.SimTime.Seconds()
	}
	return float64(marker) / 1e9
}
