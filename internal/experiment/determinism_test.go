package experiment

import (
	"context"
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/scenario"
)

// replayConfig is a figure-scale run: fast mobility, fault rotation and
// enough traffic that any hidden source of nondeterminism (map iteration
// order feeding an argmax or ordering lazy draws from a shared RNG,
// shared-state mutation by a cached route slice) has many chances to
// surface. The speed/duration match the sweep point where a shared
// waypoint RNG made the Kautz overlay's results flip between two outcomes
// depending on map iteration order; gentler configs masked it.
func replayConfig(system string) RunConfig {
	return RunConfig{
		System: system,
		Scenario: scenario.Params{
			Seed:     7,
			Sensors:  150,
			MaxSpeed: 2.5,
		},
		Warmup:     100 * time.Second,
		Duration:   300 * time.Second,
		FaultCount: 4,
	}
}

// testReplay runs the same seeded configuration twice and requires bitwise
// identical results. Result is a comparable struct, so != compares every
// counter, energy ledger and latency moment at once; only the host-timing
// fields of the stats block are stripped, since wall clock is the one thing
// a replay legitimately changes.
func testReplay(t *testing.T, system string) {
	t.Helper()
	cfg := replayConfig(system)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	r1.Stats = r1.Stats.StripWallClock()
	r2.Stats = r2.Stats.StripWallClock()
	if r1 != r2 {
		t.Fatalf("replay diverged for %s:\n first = %+v\nsecond = %+v", system, r1, r2)
	}
	if r1.Created == 0 {
		t.Fatalf("degenerate run for %s: no packets created", system)
	}
}

// TestReplayDeterminismREFER pins the determinism guarantee: a RunConfig
// fully determines the Result. Run under -race -count=2 in CI so both the
// in-process route-table sharing and cross-process stability are exercised.
func TestReplayDeterminismREFER(t *testing.T) {
	testReplay(t, SystemREFER)
}

// TestReplayDeterminismKautzOverlay covers the baseline that shares the
// route table and the nearestMember selection fixed for map-order
// nondeterminism.
func TestReplayDeterminismKautzOverlay(t *testing.T) {
	testReplay(t, SystemKautzOverlay)
}

// chaosReplaySchedule is a campaign covering every fault kind, sized for
// the replayConfig window: recoveries, churn arrivals, loss windows and
// brownouts all land inside the run, so replay equality covers the full
// injector state machine, not just the easy events.
func chaosReplaySchedule() *chaos.Schedule {
	sec := func(s int) chaos.Duration { return chaos.Duration(time.Duration(s) * time.Second) }
	return &chaos.Schedule{
		Seed: 4242,
		Events: []chaos.Event{
			{Kind: chaos.Crash, At: sec(30), Node: 17, Duration: sec(60)},
			{Kind: chaos.Churn, At: sec(50), Rate: 0.2, Duration: sec(200), Downtime: sec(20)},
			{Kind: chaos.Blackout, At: sec(120), X: 250, Y: 250, Radius: 120, Duration: sec(40)},
			{Kind: chaos.ActuatorKill, At: sec(150), Node: 3, Duration: sec(50)},
			{Kind: chaos.Brownout, At: sec(220), Fraction: 0.3},
			{Kind: chaos.LinkLoss, At: sec(250), Probability: 0.1, Duration: sec(60)},
		},
	}
}

// testReplayChaos is testReplay with the full fault campaign attached: the
// same seeded configuration plus the same chaos schedule must replay to a
// bitwise identical Result, and the campaign must actually have fired.
func testReplayChaos(t *testing.T, system string) {
	t.Helper()
	cfg := replayConfig(system)
	cfg.Chaos = chaosReplaySchedule()
	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	r1.Stats = r1.Stats.StripWallClock()
	r2.Stats = r2.Stats.StripWallClock()
	if r1 != r2 {
		t.Fatalf("chaos replay diverged for %s:\n first = %+v\nsecond = %+v", system, r1, r2)
	}
	ch := r1.Stats.Chaos
	if ch.Crashes == 0 || ch.ChurnCrashes == 0 || ch.Recoveries == 0 || ch.LossWindows == 0 {
		t.Fatalf("degenerate campaign for %s: %+v", system, ch)
	}
	if r1.Created == 0 {
		t.Fatalf("degenerate run for %s: no packets created", system)
	}
}

// TestReplayChaosREFER pins chaos-run determinism for REFER: the injector
// draws only from its own stream, so schedule plus seed fully determine
// the Result. Run under -race -count=2 in CI like the other Replay tests.
func TestReplayChaosREFER(t *testing.T) { testReplayChaos(t, SystemREFER) }

// TestReplayChaosDaTree covers the DaTree baseline's repair path under
// the same campaign.
func TestReplayChaosDaTree(t *testing.T) { testReplayChaos(t, SystemDaTree) }

// TestReplayChaosDDEAR covers D-DEAR's head re-attachment and backbone
// rebuilds under the same campaign.
func TestReplayChaosDDEAR(t *testing.T) { testReplayChaos(t, SystemDDEAR) }

// TestReplayChaosKautzOverlay covers the Kautz overlay's link rebuild
// machinery under the same campaign.
func TestReplayChaosKautzOverlay(t *testing.T) { testReplayChaos(t, SystemKautzOverlay) }

// TestReplayChaosFigureCSV pins sweep-level chaos determinism at the
// artifact boundary: two builds of the churn ablation figure (quick
// options) must render byte-identical CSV.
func TestReplayChaosFigureCSV(t *testing.T) {
	build := func() string {
		fig, err := BuildFigure(context.Background(), "A3", Options{
			Seeds:    []int64{1},
			Warmup:   50 * time.Second,
			Duration: 100 * time.Second,
			Sensors:  100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fig.CSV()
	}
	first, second := build(), build()
	if first != second {
		t.Fatalf("A3 CSV diverged:\n first:\n%s\nsecond:\n%s", first, second)
	}
	if first == "" {
		t.Fatal("empty CSV")
	}
}

// TestChaosOffMatchesBaseline pins the no-chaos guarantee at the run
// level: a RunConfig with a nil schedule must produce exactly the Result
// of the identical config built before the chaos subsystem existed — the
// injector and the loss hook are unreachable when disabled. (The paper
// figures' byte-identity is additionally checked against committed
// baselines out of band; this is the in-tree guard.)
func TestChaosOffMatchesBaseline(t *testing.T) {
	cfg := replayConfig(SystemREFER)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Chaos != (chaos.Stats{}) || plain.Stats.LostSends != 0 || plain.Stats.EnergyDrained != 0 {
		t.Fatalf("chaos counters nonzero without a schedule: %+v", plain.Stats)
	}
	// An empty schedule attaches the machinery but applies nothing; the
	// measured Result must not move.
	cfg.Chaos = &chaos.Schedule{Seed: 1}
	attached, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain.Stats = plain.Stats.StripWallClock()
	attached.Stats = attached.Stats.StripWallClock()
	if plain != attached {
		t.Fatalf("empty chaos schedule perturbed the run:\n plain = %+v\nattached = %+v", plain, attached)
	}
}
