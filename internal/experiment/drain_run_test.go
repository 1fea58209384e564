package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"refer/internal/scenario"
)

// TestDrainParallelismInvariance pins the batched-drain contract at the
// experiment level: a run is byte-identical — Result, energy ledgers, every
// deterministic RunStats counter — at every DrainParallelism setting. Only
// StripWallClock's host fields (wall clock and drain bookkeeping)
// may differ. Run under -race -count=2 by CI's determinism job.
func TestDrainParallelismInvariance(t *testing.T) {
	base := RunConfig{
		Scenario:   scenario.Params{Seed: 3, Sensors: 300, MaxSpeed: 2},
		Warmup:     2 * time.Second,
		Duration:   8 * time.Second,
		FaultCount: 5,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	refStats := ref.Stats.StripWallClock()
	ref.Stats = RunStats{}
	for _, dp := range []int{1, 2, 8} {
		cfg := base
		cfg.DrainParallelism = dp
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("DrainParallelism %d: %v", dp, err)
		}
		if dp <= 1 && res.Stats.DrainBatches != 0 {
			t.Fatalf("DrainParallelism %d: serial path reported %d batches", dp, res.Stats.DrainBatches)
		}
		gotStats := res.Stats.StripWallClock()
		res.Stats = RunStats{}
		if res != ref {
			t.Fatalf("DrainParallelism %d: Result diverged:\n%+v\nvs serial\n%+v", dp, res, ref)
		}
		if gotStats != refStats {
			t.Fatalf("DrainParallelism %d: stats diverged:\n%+v\nvs serial\n%+v", dp, gotStats, refStats)
		}
	}
}

// TestDrainBatchedWorkloadInvariance drives a scenario that actually
// batches — a dense mobile deployment whose field spans several claim tiles
// with heavy burst traffic, the S5 shape shrunk to test size — and pins
// both byte identity against the serial run and that the parallel machinery
// genuinely engaged (batches formed, warms consumed).
func TestDrainBatchedWorkloadInvariance(t *testing.T) {
	base := RunConfig{
		Scenario:      scenario.Params{Seed: 7, Sensors: 2500, MaxSpeed: 5, ActuatorGrid: 6},
		Warmup:        2 * time.Second,
		Duration:      4 * time.Second,
		Sources:       32,
		BurstInterval: 500 * time.Millisecond,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	refStats := ref.Stats.StripWallClock()
	ref.Stats = RunStats{}
	cfg := base
	cfg.DrainParallelism = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DrainBatches == 0 || res.Stats.DrainBatchedEvents == 0 {
		t.Fatalf("parallel machinery never engaged: %+v", res.Stats)
	}
	if res.Stats.DrainWarmHits == 0 {
		t.Fatal("no warmed neighbor cache was consumed at commit time")
	}
	gotStats := res.Stats.StripWallClock()
	res.Stats = RunStats{}
	if res != ref {
		t.Fatalf("Result diverged:\n%+v\nvs serial\n%+v", res, ref)
	}
	if gotStats != refStats {
		t.Fatalf("stats diverged:\n%+v\nvs serial\n%+v", gotStats, refStats)
	}
}

// TestDrainFigureInvariance pins figure-level byte identity: a
// representative paper figure and a shrunken growth point produce identical
// CSVs at drain parallelism 1 and 4.
func TestDrainFigureInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are not -short tests")
	}
	base := Options{
		Seeds:            []int64{1, 2},
		Warmup:           2 * time.Second,
		Duration:         5 * time.Second,
		Sensors:          140,
		PacketsPerSource: 2,
	}
	for _, id := range []string{"4", "S1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec, ok := FigureByID(id)
			if !ok {
				t.Fatalf("unknown figure %q", id)
			}
			ser, par := base, base
			if id == "S1" { // shrink the growth grid to test scale
				ser.Sensors, par.Sensors = 0, 0
				ser.Seeds, par.Seeds = []int64{1}, []int64{1}
			}
			ser.DrainParallelism = 1
			par.DrainParallelism = 4
			f1, err := spec.Build(context.Background(), ser)
			if err != nil {
				t.Fatalf("drain-parallelism 1: %v", err)
			}
			f4, err := spec.Build(context.Background(), par)
			if err != nil {
				t.Fatalf("drain-parallelism 4: %v", err)
			}
			if f1.CSV() != f4.CSV() {
				t.Errorf("figure %s CSV differs between drain-parallelism 1 and 4:\n%s\nvs\n%s",
					id, f1.CSV(), f4.CSV())
			}
		})
	}
}

// TestDrainParallelismValidation pins the edge validation for the drain
// knob on both the run config and the sweep options.
func TestDrainParallelismValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		dp   int
	}{
		{"negative", -1},
		{"absurd", MaxParallelism + 1},
	} {
		t.Run("run-config-"+tc.name, func(t *testing.T) {
			_, err := Run(RunConfig{DrainParallelism: tc.dp,
				Warmup: time.Second, Duration: time.Second})
			if err == nil || !strings.Contains(err.Error(), "RunConfig.DrainParallelism") {
				t.Fatalf("err = %v, want RunConfig.DrainParallelism range error", err)
			}
		})
		t.Run("options-"+tc.name, func(t *testing.T) {
			o := Options{Seeds: []int64{1}, Warmup: time.Second, Duration: time.Second,
				Sensors: 120, Systems: []string{SystemREFER}, DrainParallelism: tc.dp}
			_, err := BuildFigure(context.Background(), "4", o)
			if err == nil || !strings.Contains(err.Error(), "Options.DrainParallelism") {
				t.Fatalf("err = %v, want Options.DrainParallelism range error", err)
			}
		})
	}
}

// TestConfigKeyExcludesDrainParallelism pins the cache contract: batched
// and serial drain submissions of one config content-address identically.
func TestConfigKeyExcludesDrainParallelism(t *testing.T) {
	base := RunConfig{Warmup: time.Second, Duration: time.Second}
	k0, err := ConfigKey(base)
	if err != nil {
		t.Fatal(err)
	}
	drained := base
	drained.DrainParallelism = 8
	k8, err := ConfigKey(drained)
	if err != nil {
		t.Fatal(err)
	}
	if k0 != k8 {
		t.Fatalf("ConfigKey differs across DrainParallelism: %s vs %s", k0, k8)
	}
}
