package experiment

import "refer/internal/scenario"

// degreeConfig is the E3 run: K(d,3) cells with d beyond the paper's 2 — its
// other stated future work — under x faulty sensors. K(3,3) gives every pair
// three disjoint paths instead of two, so the failover survives heavier fault
// loads, at the price of a larger embedding (33 overlay sensors per cell) and
// more maintenance. The deployment uses 400 sensors so both variants can form
// cells.
func degreeConfig(_ Options, x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario:   scenario.Params{Seed: seed, Sensors: 400, MaxSpeed: 1},
		FaultCount: int(x),
	}
}
