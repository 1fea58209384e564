package experiment

import (
	"time"

	"refer/internal/chaos"
	"refer/internal/scenario"
)

// churnXs are the churn crash rates in crashes per second; at the paper's
// 200-sensor deployment the top rate cycles the whole population roughly
// every 17 virtual minutes.
var churnXs = []float64{0.02, 0.05, 0.1, 0.2}

// churnSchedule is one churn window spanning any run length: random sensors
// crash at the given rate, each down for 30 s. The injector's stream is
// seeded per run so repetitions vary the victims.
func churnSchedule(rate float64, seed int64) *chaos.Schedule {
	return &chaos.Schedule{
		Seed: seed,
		Events: []chaos.Event{{
			Kind:     chaos.Churn,
			Rate:     rate,
			Duration: chaos.Duration(24 * time.Hour),
			Downtime: chaos.Duration(30 * time.Second),
		}},
	}
}

// churnConfig is the A3 run: all four systems' delivery ratio under sustained
// Poisson churn at rate x, driven by the deterministic fault-injection
// subsystem instead of the paper's rotated faulty-node sets.
func churnConfig(o Options, x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario: scenario.Params{Seed: seed, Sensors: o.Sensors, MaxSpeed: 1},
		Chaos:    churnSchedule(x, seed),
	}
}
