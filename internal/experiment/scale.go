package experiment

import (
	"math"
	"time"

	"refer/internal/scenario"
)

// The network-growth study (Figures S1–S3) pushes REFER far past the
// paper's 400-sensor evaluation ceiling: thousands of sensors over an
// actuator lattice whose triangulation yields hundreds of cells. S1/S2 plot
// delivery and delay as the deployment grows; S3 plots the maintenance work
// (cell predicate evaluations, WorkStats.MaintainChecks) the cell index
// spends keeping membership current.

// gridFor returns the actuator lattice side n for a sensor population,
// keeping the density near the paper's 200 sensors / 4 cells: n×n actuators
// triangulate into 2(n-1)² cells, so sensors-per-cell stays around 50.
func gridFor(sensors float64) int {
	return int(math.Round(math.Sqrt(sensors/100))) + 1
}

// growthConfig is the S1–S4 run shape: the paper's traffic over a deployment
// of x sensors moving at 1 m/s.
func growthConfig(_ Options, x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario: scenario.Params{
			Seed:         seed,
			Sensors:      int(x),
			MaxSpeed:     1,
			ActuatorGrid: gridFor(x),
		},
	}
}

// heavyConfig is the S5 run shape: mobile heavy-traffic frontier
// deployments. MaxSpeed 5 (the paper's cap) keeps neighbor caches churning
// so per-hop rebuilds dominate the run.
func heavyConfig(_ Options, x float64, seed int64) RunConfig {
	return RunConfig{
		// A burst every second from 64 sources — an order of magnitude
		// above the paper's offered load — so forwarding, not protocol
		// upkeep, is the run's dominant cost.
		Sources:       64,
		BurstInterval: time.Second,
		Scenario: scenario.Params{
			Seed:         seed,
			Sensors:      int(x),
			MaxSpeed:     5,
			ActuatorGrid: gridFor(x),
		},
	}
}
