package experiment

import (
	"time"

	"refer/internal/chaos"
	"refer/internal/scenario"
)

// The R figure family evaluates the self-healing recovery subsystem
// (internal/recovery, DESIGN.md "Self-healing actuator recovery") under
// actuator-kill campaigns: the A3 churn workload plus an escalating set of *permanent* actuator kills —
// structural damage only the recovery protocols can repair. The deployment
// uses a 3×3 actuator lattice (eight cells, nine actuators) so killed
// corners have surviving peers to promote and neighboring cells to merge
// into; the paper's five-actuator layout leaves re-election no slack.

// recoveryXs are the swept churn rates; each point also staggers
// 1 + int(x*10) permanent actuator kills through the first minutes of the
// run, so fault intensity grows along the axis on both tiers at once.
var recoveryXs = churnXs

// recoveryCampaign is the shared fault schedule of the R family: the A3
// churn window plus permanent kills of actuators 1, 2, ... (index 0 — the
// lattice corner — is spared so the deployment never loses its first cell's
// whole corner set at once), staggered 10 s apart from t=20 s.
func recoveryCampaign(x float64, seed int64) *chaos.Schedule {
	s := churnSchedule(x, seed)
	kills := 1 + int(x*10)
	for i := 0; i < kills; i++ {
		s.Events = append(s.Events, chaos.Event{
			Kind: chaos.ActuatorKill,
			At:   chaos.Duration(time.Duration(20+10*i) * time.Second),
			Node: 1 + i, // Duration 0: permanent
		})
	}
	return s
}

// recoveryConfig is the per-run config of the R family: the lattice
// deployment under the campaign for fault intensity x. The 3×3 lattice
// field (600 m side, eight cells) covers roughly double the paper's
// four-cell region, so the sweep doubles Options.Sensors to keep per-cell
// sensor density — and with it embedding feasibility — at paper level,
// flooring at 400: below that the corner-to-corner paths of the embedding
// cannot find connected sensor chains and Build fails, so quick passes
// with small Sensors overrides (the parallelism-invariance suites run at
// 140) still get a constructible deployment. The default (2 × 200 = 400)
// sits exactly at the floor, leaving the committed R CSVs unchanged.
func recoveryConfig(o Options, x float64, seed int64) RunConfig {
	sensors := 2 * o.Sensors
	if sensors < 400 {
		sensors = 400
	}
	return RunConfig{
		Scenario: scenario.Params{Seed: seed, Sensors: sensors, MaxSpeed: 1, ActuatorGrid: 3},
		Chaos:    recoveryCampaign(x, seed),
	}
}
