package experiment

import (
	"context"
	"testing"
	"time"

	"refer/internal/scenario"
)

// quickCfg is a short run configuration for tests.
func quickCfg(system string, seed int64) RunConfig {
	return RunConfig{
		System:   system,
		Scenario: scenario.Params{Seed: seed, Sensors: 150, MaxSpeed: 1},
		Warmup:   20 * time.Second,
		Duration: 60 * time.Second,
	}
}

func TestRunEachSystem(t *testing.T) {
	for _, sys := range AllSystems() {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			t.Parallel()
			res, err := Run(quickCfg(sys, 1))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.System != sys {
				t.Errorf("System = %q", res.System)
			}
			if res.Created == 0 || res.Delivered == 0 {
				t.Fatalf("counters: %+v", res)
			}
			if res.Delivered > res.Created {
				t.Fatalf("delivered %d > created %d", res.Delivered, res.Created)
			}
			if res.QoS > res.Delivered {
				t.Fatalf("qos %d > delivered %d", res.QoS, res.Delivered)
			}
			if res.ConstructionEnergy <= 0 || res.CommEnergy <= 0 {
				t.Fatalf("energy: %+v", res)
			}
			if res.MeanQoSDelay <= 0 && res.QoS > 0 {
				t.Fatal("QoS deliveries but zero delay")
			}
		})
	}
}

func TestRunUnknownSystem(t *testing.T) {
	if _, err := Run(quickCfg("bogus", 1)); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	for _, sys := range AllSystems() {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			t.Parallel()
			a, err := Run(quickCfg(sys, 7))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(quickCfg(sys, 7))
			if err != nil {
				t.Fatal(err)
			}
			a.Stats = a.Stats.StripWallClock()
			b.Stats = b.Stats.StripWallClock()
			if a != b {
				t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
			}
		})
	}
	a, err := Run(quickCfg(SystemREFER, 7))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(quickCfg(SystemREFER, 8))
	if err != nil {
		t.Fatal(err)
	}
	a.Stats, c.Stats = a.Stats.StripWallClock(), c.Stats.StripWallClock()
	if a == c {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRunFaultInjectionHurts(t *testing.T) {
	clean, err := Run(quickCfg(SystemREFERNoFailover, 3))
	if err != nil {
		t.Fatal(err)
	}
	faulty := quickCfg(SystemREFERNoFailover, 3)
	faulty.FaultCount = 20
	hurt, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if hurt.Delivered >= clean.Delivered {
		t.Fatalf("20 faults did not reduce deliveries: %d vs %d", hurt.Delivered, clean.Delivered)
	}
}

func TestFailoverAblationShowsBenefit(t *testing.T) {
	// Static deployment so faults are the only drop source; aggregate the
	// delivery ratio over seeds to suppress per-run traffic randomness.
	ratio := func(system string) float64 {
		created, delivered := 0, 0
		for seed := int64(1); seed <= 3; seed++ {
			cfg := RunConfig{
				System:     system,
				Scenario:   scenario.Params{Seed: seed, Sensors: 150},
				Warmup:     20 * time.Second,
				Duration:   120 * time.Second,
				FaultCount: 20,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			created += res.Created
			delivered += res.Delivered
		}
		return float64(delivered) / float64(created)
	}
	full := ratio(SystemREFER)
	ablated := ratio(SystemREFERNoFailover)
	if full <= ablated {
		t.Fatalf("failover shows no benefit under faults: full %.3f vs ablated %.3f", full, ablated)
	}
	t.Logf("delivery ratio: full %.3f vs no-failover %.3f", full, ablated)
}

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}.withDefaults()
	if c.System != SystemREFER || c.Warmup != 100*time.Second || c.Duration != 1000*time.Second {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Sources != 5 || c.BurstInterval != 10*time.Second {
		t.Fatalf("traffic defaults: %+v", c)
	}
	if c.QoSDeadline != 600*time.Millisecond {
		t.Fatalf("deadline default: %v", c.QoSDeadline)
	}
}

func TestSweepStructure(t *testing.T) {
	o := Options{
		Seeds:    []int64{1, 2},
		Warmup:   15 * time.Second,
		Duration: 30 * time.Second,
		Systems:  []string{SystemREFER},
		Sensors:  120,
	}
	fig, err := BuildFigure(context.Background(), "7", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	series := fig.Series[0]
	if series.System != SystemREFER {
		t.Fatalf("series system = %q", series.System)
	}
	if len(series.Points) != 5 {
		t.Fatalf("points = %d", len(series.Points))
	}
	for i, p := range series.Points {
		if len(p.Y.Samples) != 2 {
			t.Fatalf("point %d has %d samples, want 2", i, len(p.Y.Samples))
		}
	}
	if _, ok := fig.SeriesFor(SystemREFER); !ok {
		t.Fatal("SeriesFor missed the series")
	}
	if _, ok := fig.SeriesFor("nope"); ok {
		t.Fatal("SeriesFor invented a series")
	}
	if len(series.Means()) != 5 {
		t.Fatal("Means length")
	}
	if fig.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	o := Options{
		Seeds:    []int64{1},
		Warmup:   10 * time.Second,
		Duration: 10 * time.Second,
		Systems:  []string{"not-a-system"},
	}
	if _, err := BuildFigure(context.Background(), "4", o); err == nil {
		t.Fatal("sweep swallowed the error")
	}
}

func TestAblationFigures(t *testing.T) {
	o := Options{
		Seeds:    []int64{1},
		Warmup:   15 * time.Second,
		Duration: 40 * time.Second,
		Sensors:  120,
	}
	fig, err := BuildFigure(context.Background(), "A1", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || fig.ID != "A1" {
		t.Fatalf("ablation figure: %+v", fig)
	}
	fig2, err := BuildFigure(context.Background(), "A2", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig2.Series) != 2 || fig2.ID != "A2" {
		t.Fatalf("ablation figure: %+v", fig2)
	}
}

func TestResultTotalEnergy(t *testing.T) {
	r := Result{CommEnergy: 3, ConstructionEnergy: 4}
	if r.TotalEnergy() != 7 {
		t.Fatal("TotalEnergy")
	}
}

func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("3 grid sweeps")
	}
	wantIDs := []string{"4", "5", "6", "7", "8", "9", "10", "11"}
	var figs []Figure
	err := BuildFigures(context.Background(), wantIDs, Options{
		Seeds:    []int64{1},
		Warmup:   15 * time.Second,
		Duration: 30 * time.Second,
		Systems:  []string{SystemREFER, SystemDDEAR},
		Sensors:  120,
	}, func(fig Figure) error {
		figs = append(figs, fig)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 8 {
		t.Fatalf("figures = %d", len(figs))
	}
	for i, fig := range figs {
		if fig.ID != wantIDs[i] {
			t.Fatalf("figure %d has ID %s", i, fig.ID)
		}
		if len(fig.Series) != 2 {
			t.Fatalf("figure %s series = %d", fig.ID, len(fig.Series))
		}
	}
}

func TestExtDegreeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("400-sensor runs")
	}
	fig, err := BuildFigure(context.Background(), "E3", Options{
		Seeds:    []int64{1},
		Warmup:   20 * time.Second,
		Duration: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "E3" || len(fig.Series) != 2 {
		t.Fatalf("figure: %+v", fig)
	}
	if _, ok := fig.SeriesFor(SystemREFERK33); !ok {
		t.Fatal("missing K(3,3) series")
	}
}
