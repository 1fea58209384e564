package experiment

import (
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/recovery"
	"refer/internal/scenario"
)

// latticeCampaign is the recovery test deployment: the R-family 3×3 lattice
// with permanent actuator kills under churn.
func latticeCampaign(seed int64, killAt ...int) RunConfig {
	sched := &chaos.Schedule{
		Seed: seed,
		Events: []chaos.Event{{
			Kind:     chaos.Churn,
			At:       chaos.Duration(10 * time.Second),
			Rate:     0.1,
			Duration: chaos.Duration(24 * time.Hour),
			Downtime: chaos.Duration(30 * time.Second),
		}},
	}
	for i, at := range killAt {
		sched.Events = append(sched.Events, chaos.Event{
			Kind: chaos.ActuatorKill,
			At:   chaos.Duration(time.Duration(at) * time.Second),
			Node: 1 + i,
		})
	}
	return RunConfig{
		System:   SystemREFERRecovery,
		Scenario: scenario.Params{Seed: seed, Sensors: 400, MaxSpeed: 1, ActuatorGrid: 3},
		Warmup:   20 * time.Second,
		Duration: 100 * time.Second,
		Chaos:    sched,
	}
}

// TestRecoveryKillDuringMaintenance kills actuators at exact multiples of
// the maintenance cadence, so the kill, the maintenance round and the
// recovery sweep all contend at the same virtual timestamps — the DES tie
// order must be deterministic and the whole run must replay byte-identically.
func TestRecoveryKillDuringMaintenance(t *testing.T) {
	// 30 s and 45 s are multiples of both the 5 s maintenance tick and the
	// 5 s recovery check interval.
	cfg := latticeCampaign(3, 30, 45)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Stats = r1.Stats.StripWallClock()
	r2.Stats = r2.Stats.StripWallClock()
	if r1 != r2 {
		t.Fatalf("replay diverged:\n first = %+v\nsecond = %+v", r1, r2)
	}
	if r1.Stats.Recovery.Repairs() == 0 {
		t.Fatalf("no repairs fired: %+v", r1.Stats.Recovery)
	}
}

// TestRecoveryDisabledAddsNothing pins the zero-cost contract of a zero
// spec: a plain REFER run under the same campaign attaches no manager, so
// its recovery counters are exactly zero and the run replays byte-identically
// (the golden figure CSVs extend this to pre-change baselines).
func TestRecoveryDisabledAddsNothing(t *testing.T) {
	cfg := latticeCampaign(3, 30, 45)
	cfg.System = SystemREFER
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Recovery != (recovery.Stats{}) {
		t.Fatalf("recovery-disabled run accumulated recovery stats: %+v", r1.Stats.Recovery)
	}
	r1.Stats = r1.Stats.StripWallClock()
	r2.Stats = r2.Stats.StripWallClock()
	if r1 != r2 {
		t.Fatalf("replay diverged:\n first = %+v\nsecond = %+v", r1, r2)
	}
}

// TestRecoverySpecEnablesPlainREFER checks the two spellings of "REFER with
// recovery" agree: SystemREFER plus an enabled spec runs the same protocols
// the REFER/recovery system arm enables implicitly.
func TestRecoverySpecEnablesPlainREFER(t *testing.T) {
	implicit := latticeCampaign(3, 30, 45)
	explicit := implicit
	explicit.System = SystemREFER
	explicit.Recovery = recovery.Spec{Enabled: true}
	ri, err := Run(implicit)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Stats.Recovery.Repairs() == 0 {
		t.Fatalf("implicit arm repaired nothing: %+v", ri.Stats.Recovery)
	}
	if ri.Stats.Recovery != re.Stats.Recovery {
		t.Fatalf("recovery stats diverged between spellings:\nimplicit = %+v\nexplicit = %+v",
			ri.Stats.Recovery, re.Stats.Recovery)
	}
}
