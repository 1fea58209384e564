package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/core"
	"refer/internal/energy"
	"refer/internal/recovery"
	"refer/internal/scenario"
)

// sparseXs are the E1/E2 sweep positions.
var sparseXs = grids["density"].xs

func TestExtSparseHandlesInfeasibleDeployments(t *testing.T) {
	o := Options{
		Seeds:    []int64{1, 2},
		Warmup:   15 * time.Second,
		Duration: 40 * time.Second,
		Systems:  []string{SystemREFER},
	}
	fig, err := BuildFigure(context.Background(), "E1", o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "E1" || len(fig.Series) != 1 {
		t.Fatalf("figure: %+v", fig)
	}
	series := fig.Series[0]
	if len(series.Points) != len(sparseXs) {
		t.Fatalf("points = %d", len(series.Points))
	}
	// The densest point must outperform the sparsest: REFER needs density
	// (Prop. 3.2) and 60-sensor deployments often cannot form cells.
	first, last := series.Points[0], series.Points[len(series.Points)-1]
	if last.Y.Mean <= first.Y.Mean {
		t.Fatalf("throughput should grow with density: %f at %g vs %f at %g",
			first.Y.Mean, first.X, last.Y.Mean, last.X)
	}
}

func TestExtSparseDeliveryRatioBounded(t *testing.T) {
	o := Options{
		Seeds:    []int64{3},
		Warmup:   15 * time.Second,
		Duration: 40 * time.Second,
		Systems:  []string{SystemDaTree},
	}
	fig, err := BuildFigure(context.Background(), "E2", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y.Mean < 0 || p.Y.Mean > 1 {
				t.Fatalf("delivery ratio %f out of [0,1] at x=%g", p.Y.Mean, p.X)
			}
		}
	}
}

// TestExtSparseHonorsSweepOptions pins that the sparse figures run through
// sweep: every sweep-wide override in Options reaches each submitted run.
func TestExtSparseHonorsSweepOptions(t *testing.T) {
	var mu sync.Mutex
	var cfgs []RunConfig
	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		mu.Lock()
		cfgs = append(cfgs, cfg)
		mu.Unlock()
		return Result{System: cfg.System}, nil
	})
	o := Options{
		Seeds:    []int64{1},
		Systems:  []string{SystemREFER},
		Chaos:    &chaos.Schedule{},
		Energy:   energy.Spec{Model: energy.ModelRadio},
		Recovery: recovery.Spec{Enabled: true},
	}
	if _, err := BuildFigure(context.Background(), "E1", o); err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != len(sparseXs) {
		t.Fatalf("submitted %d runs, want %d", len(cfgs), len(sparseXs))
	}
	for _, cfg := range cfgs {
		if cfg.Chaos != o.Chaos || cfg.Energy != o.Energy || cfg.Recovery != o.Recovery {
			t.Fatalf("sweep options dropped at %d sensors: chaos=%v energy=%+v recovery=%+v",
				cfg.Scenario.Sensors, cfg.Chaos != nil, cfg.Energy, cfg.Recovery)
		}
	}
}

// TestExtSparseZeroSampleNeedsErrBuild pins the build-failure contract: only
// an error wrapping ErrBuild scores zero (with a nil ProgressEvent.Err); any
// other error fails the sweep, whatever its text says.
func TestExtSparseZeroSampleNeedsErrBuild(t *testing.T) {
	o := Options{Seeds: []int64{1}, Systems: []string{SystemREFER}, Parallelism: 1}

	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		return Result{}, errors.New("disk full while building report")
	})
	if _, err := BuildFigure(context.Background(), "E1", o); err == nil {
		t.Fatal("a non-ErrBuild error mentioning \"building\" was scored as a sample")
	}

	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		return Result{}, fmt.Errorf("%w %s: too sparse", ErrBuild, cfg.System)
	})
	var events []ProgressEvent
	o.Progress = func(ev ProgressEvent) { events = append(events, ev) }
	fig, err := BuildFigure(context.Background(), "E1", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Series[0].Points {
		if p.Y.Mean != 0 || len(p.Y.Samples) != 1 {
			t.Fatalf("x=%g: summary %+v, want one zero sample", p.X, p.Y)
		}
	}
	if len(events) != len(sparseXs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(sparseXs))
	}
	for _, ev := range events {
		if ev.Err != nil || ev.Aborted {
			t.Fatalf("build failure surfaced in progress: %+v", ev)
		}
	}
}

// InterCellResult summarizes the E4 inter-cell routing study: REFER's DHT
// tier carrying packets between cells (Section III-B-3 describes the
// mechanism; the paper's evaluation only exercises intra-cell traffic).
type InterCellResult struct {
	// Attempts and Delivered count cross-cell SendTo packets.
	Attempts, Delivered int
	// MeanDelay is the mean end-to-end latency of delivered packets.
	MeanDelay time.Duration
	// MeanCellHops is the mean number of cells a packet crossed.
	MeanCellHops float64
}

// ExtInterCell measures REFER's inter-cell routing: from every cell's
// farthest overlay sensor to an overlay node of every other cell, repeated
// per seed. Returns aggregate delivery and latency statistics.
func ExtInterCell(o Options) (InterCellResult, error) {
	o = o.withDefaults()
	var agg InterCellResult
	var totalDelay time.Duration
	var totalCellHops int
	for _, seed := range o.Seeds {
		w := scenario.Build(scenario.Params{Seed: seed, Sensors: o.Sensors, MaxSpeed: 1})
		sys := core.New(w, core.DefaultConfig())
		if err := sys.Build(); err != nil {
			return InterCellResult{}, fmt.Errorf("experiment: inter-cell study: %w", err)
		}
		// Let construction airtime drain.
		w.Sched.RunUntil(10 * time.Second)
		cells := sys.Cells()
		for _, from := range cells {
			for _, to := range cells {
				if from.CID == to.CID {
					continue
				}
				src, okSrc := from.Node("021")
				_, okDst := to.Node("010")
				if !okSrc || !okDst {
					continue
				}
				agg.Attempts++
				start := w.Now()
				route, _ := sys.DHTRoute(from.CID, to.CID)
				sys.SendTo(src, core.Address{CID: to.CID, KID: "010"}, func(ok bool) {
					if !ok {
						return
					}
					agg.Delivered++
					totalDelay += w.Now() - start
					totalCellHops += len(route) - 1
				})
				w.Sched.RunUntil(w.Now() + 5*time.Second)
			}
		}
	}
	if agg.Delivered > 0 {
		agg.MeanDelay = totalDelay / time.Duration(agg.Delivered)
		agg.MeanCellHops = float64(totalCellHops) / float64(agg.Delivered)
	}
	return agg, nil
}

func TestExtInterCell(t *testing.T) {
	res, err := ExtInterCell(Options{Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 cells → 12 ordered pairs per seed.
	if res.Attempts != 24 {
		t.Fatalf("attempts = %d, want 24", res.Attempts)
	}
	if res.Delivered < res.Attempts*8/10 {
		t.Fatalf("delivered %d/%d inter-cell packets", res.Delivered, res.Attempts)
	}
	if res.MeanDelay <= 0 || res.MeanDelay > 500*time.Millisecond {
		t.Fatalf("mean delay = %v", res.MeanDelay)
	}
	if res.MeanCellHops < 1 {
		t.Fatalf("mean cell hops = %f", res.MeanCellHops)
	}
}
