package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/scenario"
)

// TestReplayHarvestingSleep pins replay determinism for the busiest energy
// configuration: battery-constrained sensors priced by the radio model
// under the harvesting wrapper, so depletion, revival, harvest credits and
// staggered sleep windows all fire inside the run. Run under -race -count=2
// in CI like the other Replay tests.
func TestReplayHarvestingSleep(t *testing.T) {
	cfg := replayConfig(SystemREFER)
	cfg.Scenario.SensorBattery = 0.05
	cfg.Energy = energy.Spec{Model: energy.ModelHarvesting}
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
		t.Fatalf("harvesting replay diverged:\n first = %+v\nsecond = %+v", r1, r2)
	}
	if r1.Stats.EnergyHarvested == 0 {
		t.Fatal("degenerate run: nothing harvested")
	}
	if r1.Stats.NodeDeaths == 0 || r1.Stats.NodeRevivals == 0 {
		t.Fatalf("degenerate run: deaths=%d revivals=%d, want both > 0",
			r1.Stats.NodeDeaths, r1.Stats.NodeRevivals)
	}
	if r1.Created == 0 {
		t.Fatal("degenerate run: no packets created")
	}
}

// TestRadioModelRunMatchesFlatTopology checks the energy model is a pure
// pricing layer when batteries are unconstrained: the same seeded run under
// the radio model delivers exactly the packets the flat model does — only
// the Joules move.
func TestRadioModelRunMatchesFlatTopology(t *testing.T) {
	cfg := replayConfig(SystemREFER)
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Energy = energy.Spec{Model: energy.ModelRadio}
	radio, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if radio.Delivered != flat.Delivered || radio.Created != flat.Created ||
		radio.MeanDelay != flat.MeanDelay {
		t.Fatalf("radio pricing changed behavior:\n flat = %+v\nradio = %+v", flat, radio)
	}
	if radio.CommEnergy == flat.CommEnergy || radio.CommEnergy <= 0 {
		t.Fatalf("radio pricing did not move the ledger: flat %v, radio %v",
			flat.CommEnergy, radio.CommEnergy)
	}
}

// TestJouleScalingIsExact is a metamorphic oracle on whole runs: scaling the
// flat cost model by a power of two scales every Joule exactly, so a model in
// which no decision reads a Joule value except by order moves nothing else.
// Every system on three seeds must keep every count, delay and DES event
// count, and show both ledgers exactly ×4.
func TestJouleScalingIsExact(t *testing.T) {
	scaled := energy.PaperModel{TxJ: 4 * energy.DefaultTxCost, RxJ: 4 * energy.DefaultRxCost}
	for _, sys := range AllSystems() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := RunConfig{
				System:   sys,
				Scenario: scenario.Params{Seed: seed, Sensors: 200},
				Warmup:   20 * time.Second, Duration: 100 * time.Second,
			}
			flat, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scenario.Energy = scaled
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.CommEnergy != 4*flat.CommEnergy || got.ConstructionEnergy != 4*flat.ConstructionEnergy || flat.Delivered == 0 {
				t.Errorf("%s seed %d: ledgers %v/%v under ×4 costs, %v/%v flat", sys, seed,
					got.CommEnergy, got.ConstructionEnergy, flat.CommEnergy, flat.ConstructionEnergy)
			}
			// Undo the scaling (exact for a power of two) and the host timing;
			// what is left must be the flat run bit for bit.
			got.CommEnergy, got.ConstructionEnergy = flat.CommEnergy, flat.ConstructionEnergy
			got.Stats.CommEnergy, got.Stats.ConstructionEnergy = got.Stats.CommEnergy/4, got.Stats.ConstructionEnergy/4
			got.Stats.HostStats, flat.Stats.HostStats = HostStats{}, HostStats{}
			if !reflect.DeepEqual(got, flat) {
				t.Errorf("%s seed %d: ×4 costs moved the run:\nflat %+v\n ×4  %+v", sys, seed, flat, got)
			}
		}
	}
}

// TestLifetimeFigureQuick smoke-tests the L-family sweep end to end at tiny
// scale: every system produces a curve, deaths happen at the starved end,
// and censoring keeps undying points at the window length.
func TestLifetimeFigureQuick(t *testing.T) {
	fig, err := BuildFigure(context.Background(), "L1", Options{
		Seeds:    []int64{1},
		Warmup:   20 * time.Second,
		Duration: 60 * time.Second,
		Sensors:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(AllSystems()) {
		t.Fatalf("%d series, want %d", len(fig.Series), len(AllSystems()))
	}
	window := (20 + 60 + 2) * time.Second // warmup + duration + drain
	for _, s := range fig.Series {
		if len(s.Points) != len(lifetimeXs) {
			t.Fatalf("%s: %d points, want %d", s.System, len(s.Points), len(lifetimeXs))
		}
		for _, p := range s.Points {
			if p.Y.Mean < 0 || p.Y.Mean > window.Seconds() {
				t.Fatalf("%s: first-death %v s outside [0, %v]", s.System, p.Y.Mean, window.Seconds())
			}
		}
	}
}
