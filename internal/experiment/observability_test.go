package experiment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"refer/internal/scenario"
	"refer/internal/trace"
)

// traceCfg is a run whose measurement window covers every packet: warmup is
// a token 1 ms (zero would trigger the 100 s default) and the window ends
// after the last burst's packets have either arrived or been dropped, so
// the collector and the tracer see the exact same packet population.
func traceCfg(system string, seed int64) RunConfig {
	return RunConfig{
		System:     system,
		Scenario:   scenario.Params{Seed: seed, Sensors: 150, MaxSpeed: 1},
		Warmup:     time.Millisecond,
		Duration:   95 * time.Second,
		FaultCount: 8,
	}
}

// TestTraceMatchesCollector reconciles the two views of the one packet
// lifecycle the world keeps: the metrics collector (driving the figures) and
// the trace recorder (driving observability) must agree packet for packet on
// all four systems.
func TestTraceMatchesCollector(t *testing.T) {
	for _, sys := range AllSystems() {
		sys := sys
		t.Run(sys, func(t *testing.T) {
			t.Parallel()
			cfg := traceCfg(sys, 7)
			cfg.Trace = trace.NewRecorder(1)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg.Trace.Counts()
			if c.Injected == 0 {
				t.Fatal("no packets traced")
			}
			if int(c.Injected) != res.Created {
				t.Fatalf("trace injected %d != collector created %d", c.Injected, res.Created)
			}
			if int(c.Delivered) != res.Delivered {
				t.Fatalf("trace delivered %d != collector delivered %d", c.Delivered, res.Delivered)
			}
			if int(c.Dropped) != res.Dropped {
				t.Fatalf("trace dropped %d != collector dropped %d", c.Dropped, res.Dropped)
			}
			if c.Injected != c.Delivered+c.Dropped {
				t.Fatalf("unbalanced ledger: injected %d, delivered %d + dropped %d",
					c.Injected, c.Delivered, c.Dropped)
			}
			if res.Stats.Trace != c {
				t.Fatalf("Result.Stats.Trace %+v != recorder counts %+v", res.Stats.Trace, c)
			}
			// sampleEvery=1 stores every packet's lifecycle; each starts
			// with an Inject event and ends with Deliver or Drop.
			events := cfg.Trace.Events()
			injects, finals := 0, 0
			for _, ev := range events {
				switch ev.Kind {
				case trace.Inject:
					injects++
				case trace.Deliver, trace.Drop:
					finals++
				}
			}
			if uint64(injects) != c.Injected || uint64(finals) != c.Injected {
				t.Fatalf("event stream: %d injects, %d finals, want %d each",
					injects, finals, c.Injected)
			}
			if c.RadioSends == 0 || c.Hops == 0 {
				t.Fatalf("no radio/hop activity recorded: %+v", c)
			}
		})
	}
}

// TestTraceSamplingKeepsLedgerExact checks a sampled recorder stores fewer
// events but identical counts.
func TestTraceSamplingKeepsLedgerExact(t *testing.T) {
	exact := traceCfg(SystemREFER, 7)
	exact.Trace = trace.NewRecorder(1)
	if _, err := Run(exact); err != nil {
		t.Fatal(err)
	}
	sampled := traceCfg(SystemREFER, 7)
	sampled.Trace = trace.NewRecorder(10)
	if _, err := Run(sampled); err != nil {
		t.Fatal(err)
	}
	if exact.Trace.Counts() != sampled.Trace.Counts() {
		t.Fatalf("sampling changed counts:\nexact   %+v\nsampled %+v",
			exact.Trace.Counts(), sampled.Trace.Counts())
	}
	if le, ls := len(exact.Trace.Events()), len(sampled.Trace.Events()); ls == 0 || ls >= le {
		t.Fatalf("sampled events %d, exact %d — sampling had no effect", ls, le)
	}
}

// TestRunStatsPopulated checks the stats block carries the run's DES and
// protocol counters.
func TestRunStatsPopulated(t *testing.T) {
	res, err := Run(quickCfg(SystemREFER, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.DESEvents == 0 || st.WallClock <= 0 || st.EventsPerSec <= 0 {
		t.Fatalf("host/DES stats empty: %+v", st)
	}
	if st.SimTime != 20*time.Second+60*time.Second+2*time.Second {
		t.Fatalf("SimTime = %v", st.SimTime)
	}
	if st.RouteTableHits == 0 {
		t.Fatalf("REFER run recorded no route-table hits: %+v", st)
	}
	if st.CommEnergy != res.CommEnergy || st.ConstructionEnergy != res.ConstructionEnergy {
		t.Fatalf("stats energy diverges from result: %+v vs %+v", st, res)
	}
	if st.Trace != (trace.Counts{}) {
		t.Fatalf("untraced run has trace counts: %+v", st.Trace)
	}
}

// TestRunContextPreCancelled returns immediately with ctx.Err().
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, quickCfg(SystemREFER, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelsMidRun aborts a long simulation promptly once the
// deadline passes: the DES loop checks ctx every batch.
func TestRunContextCancelsMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	cfg := RunConfig{
		System:   SystemREFER,
		Scenario: scenario.Params{Seed: 1, Sensors: 300, MaxSpeed: 2},
		Warmup:   100 * time.Second,
		Duration: 5000 * time.Second,
	}
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: the run would take far longer uncancelled; the check
	// only needs to prove the loop noticed the deadline between batches.
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestSweepProgressCoversAllRuns checks the callback fires once per run
// with consistent bookkeeping and the owning figure's registry ID.
func TestSweepProgressCoversAllRuns(t *testing.T) {
	var events []ProgressEvent
	o := Options{
		Seeds:       []int64{1, 2},
		Warmup:      15 * time.Second,
		Duration:    30 * time.Second,
		Systems:     []string{SystemREFER},
		Sensors:     120,
		TraceSample: 50,
		Progress:    func(ev ProgressEvent) { events = append(events, ev) },
	}
	fig, err := BuildFigure(context.Background(), "7", o)
	if err != nil {
		t.Fatal(err)
	}
	total := len(o.Systems) * 5 * len(o.Seeds) // faultXs has 5 positions
	if len(events) != total {
		t.Fatalf("progress events = %d, want %d", len(events), total)
	}
	for i, ev := range events {
		if ev.FigureID != "7" {
			t.Fatalf("event %d FigureID = %q", i, ev.FigureID)
		}
		if ev.Done != i+1 || ev.Total != total {
			t.Fatalf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if ev.Err != nil {
			t.Fatalf("event %d unexpected error: %v", i, ev.Err)
		}
		if ev.System != SystemREFER {
			t.Fatalf("event %d system = %q", i, ev.System)
		}
	}
	if fig.Stats.Runs != total {
		t.Fatalf("SweepStats.Runs = %d, want %d", fig.Stats.Runs, total)
	}
	if fig.Stats.DESEvents == 0 || fig.Stats.WallClock <= 0 {
		t.Fatalf("sweep stats empty: %+v", fig.Stats)
	}
	if fig.Stats.Trace.Injected == 0 {
		t.Fatalf("TraceSample did not aggregate trace counts: %+v", fig.Stats.Trace)
	}
}

// TestSweepErrorIncludesRunConfig checks a failing run's system, seed and
// sweep position survive into the aggregated error.
func TestSweepErrorIncludesRunConfig(t *testing.T) {
	o := Options{
		Seeds:    []int64{9},
		Warmup:   10 * time.Second,
		Duration: 10 * time.Second,
		Sensors:  20, // too sparse to embed a REFER cell: every run fails in Build
		Systems:  []string{SystemREFER},
	}
	_, err := BuildFigure(context.Background(), "4", o)
	if !errors.Is(err, ErrBuild) {
		t.Fatalf("err = %v, want ErrBuild", err)
	}
	msg := err.Error()
	for _, want := range []string{SystemREFER, "seed=9", "x="} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

// TestSweepCancelledReturnsCtxErr cancels a sweep up front: no runs
// execute, the context error is reported, and the only progress event is
// the terminal abort marker (Aborted, Done == Total == 0).
func TestSweepCancelledReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []ProgressEvent
	o := Options{
		Seeds:    []int64{1},
		Warmup:   10 * time.Second,
		Duration: 10 * time.Second,
		Systems:  []string{SystemREFER},
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	}
	if _, err := BuildFigure(ctx, "4", o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, ev := range events {
		if ev.System != "" || ev.Done != 0 {
			t.Fatalf("run executed after cancellation: %+v", ev)
		}
	}
	if len(events) != 1 || !events[0].Aborted {
		t.Fatalf("events = %+v, want exactly the terminal abort marker", events)
	}
}

// TestRegistryContents pins the three row tables: figure IDs stable, unique,
// correctly classified, resolvable via FigureByID and naming an existing grid
// and column; no code in a figure row; every column zero on the zero Result.
func TestRegistryContents(t *testing.T) {
	specs := Figures()
	wantKinds := map[string]FigureKind{
		"4": KindPaper, "5": KindPaper, "6": KindPaper, "7": KindPaper,
		"8": KindPaper, "9": KindPaper, "10": KindPaper, "11": KindPaper,
		"A1": KindAblation, "A2": KindAblation, "A3": KindAblation,
		"E1": KindExtension, "E2": KindExtension, "E3": KindExtension,
		"L1": KindExtension, "L2": KindExtension, "L3": KindExtension,
		"S1": KindScale, "S2": KindScale, "S3": KindScale, "S4": KindScale,
		"S5": KindScale,
		"R1": KindRecovery, "R2": KindRecovery,
	}
	if len(specs) != len(wantKinds) {
		t.Fatalf("registry has %d entries, want %d", len(specs), len(wantKinds))
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		if seen[spec.ID] {
			t.Fatalf("duplicate figure ID %q", spec.ID)
		}
		seen[spec.ID] = true
		kind, ok := wantKinds[spec.ID]
		if !ok {
			t.Fatalf("unexpected figure %q", spec.ID)
		}
		if spec.Kind != kind {
			t.Fatalf("figure %q kind = %v, want %v", spec.ID, spec.Kind, kind)
		}
		if spec.Title == "" {
			t.Fatalf("figure %q incomplete: %+v", spec.ID, spec)
		}
		if _, ok := grids[spec.Grid]; !ok {
			t.Fatalf("figure %q names unknown grid %q", spec.ID, spec.Grid)
		}
		if _, ok := columns[spec.Column]; !ok {
			t.Fatalf("figure %q names unknown column %q", spec.ID, spec.Column)
		}
		byID, ok := FigureByID(spec.ID)
		if !ok || byID.ID != spec.ID {
			t.Fatalf("FigureByID(%q) failed", spec.ID)
		}
	}
	if _, ok := FigureByID("999"); ok {
		t.Fatal("FigureByID invented a figure")
	}
	// The figure definitions are data: no row carries code.
	for typ, i := reflect.TypeOf(FigureSpec{}), 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("FigureSpec.%s is func-typed", f.Name)
		}
	}
	// E1/E2 stand the zero Result in for a run that could not build and plot
	// it as zero, whatever the column.
	for name, col := range columns {
		if y := col.value(Result{}); y != 0 {
			t.Errorf("column %q maps the zero Result to %g, want 0", name, y)
		}
		if col.yLabel == "" {
			t.Errorf("column %q has no y label", name)
		}
	}
	if len(grids) != 14 || len(columns) != 11 {
		t.Errorf("%d grids and %d columns, want 14 and 11", len(grids), len(columns))
	}
	if KindPaper.String() != "paper" || KindAblation.String() != "ablation" ||
		KindExtension.String() != "extension" || KindScale.String() != "scale" {
		t.Fatal("FigureKind.String")
	}
}

// TestRegistryStampsFigure checks a built figure carries its registry row's
// ID and Title.
func TestRegistryStampsFigure(t *testing.T) {
	spec, _ := FigureByID("A1")
	fig, err := BuildFigure(context.Background(), spec.ID, Options{
		Seeds:    []int64{1},
		Warmup:   15 * time.Second,
		Duration: 30 * time.Second,
		Sensors:  120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "A1" || fig.Title != spec.Title {
		t.Fatalf("figure not stamped: ID=%q Title=%q", fig.ID, fig.Title)
	}
}
