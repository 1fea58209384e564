package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refer/internal/scenario"
)

// stubSweepRun substitutes run execution for the duration of a test; the
// stub sees the exact per-job RunConfig the sweep built.
func stubSweepRun(t *testing.T, fn func(ctx context.Context, cfg RunConfig) (Result, error)) {
	t.Helper()
	orig := sweepRun
	sweepRun = fn
	t.Cleanup(func() { sweepRun = orig })
}

// unitGrid is a one-position grid of default runs, for tests of the sweep
// machinery that stub the runs out.
var unitGrid = grid{xs: []float64{1}, configure: func(Options, float64, int64) RunConfig { return RunConfig{} }}

// TestSweepAbortClampsTotal pins the early-stop contract: when a run fails,
// the sweep stops scheduling, the remaining events carry Aborted, and the
// final event reports Done == Total (clamped to the runs actually started)
// instead of leaving Done < Total forever.
func TestSweepAbortClampsTotal(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		if calls.Add(1) == 3 {
			return Result{}, boom
		}
		return Result{System: cfg.System}, nil
	})

	var events []ProgressEvent
	o := Options{
		Seeds:       []int64{1, 2, 3, 4, 5},
		Systems:     []string{SystemREFER, SystemDaTree},
		Parallelism: 1, // deterministic scheduling order
		Progress:    func(ev ProgressEvent) { events = append(events, ev) },
	}
	_, err := sweep(context.Background(), "", grid{xs: []float64{1, 2}, configure: func(_ Options, _ float64, seed int64) RunConfig {
		return RunConfig{Scenario: scenario.Params{Seed: seed}}
	}}, o)
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want %v", err, boom)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if !last.Aborted {
		t.Fatalf("final event not marked aborted: %+v", last)
	}
	if last.Done != last.Total {
		t.Fatalf("final event Done=%d Total=%d, want equal after abort", last.Done, last.Total)
	}
	if last.Total >= 20 {
		t.Fatalf("final Total=%d not clamped below the 20-job grid", last.Total)
	}
	// Events before the failure report the full grid and are not aborted.
	if events[0].Aborted || events[0].Total != 20 {
		t.Fatalf("first event: %+v, want Total=20, not aborted", events[0])
	}
}

// TestSweepCancelBeforeStartEmitsAbort pins the zero-run abort path: a sweep
// whose context is already cancelled still emits one terminal event.
func TestSweepCancelBeforeStartEmitsAbort(t *testing.T) {
	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		t.Error("run executed under cancelled context")
		return Result{}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []ProgressEvent
	o := Options{
		Seeds:    []int64{1},
		Systems:  []string{SystemREFER},
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	}
	_, err := sweep(ctx, "", unitGrid, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	if len(events) != 1 || !events[0].Aborted || events[0].Done != 0 || events[0].Total != 0 {
		t.Fatalf("events = %+v, want one terminal aborted event with Done == Total == 0", events)
	}
}

// TestSweepBlockingProgressCallback pins the serialization fix: a progress
// callback that blocks must not stall the workers — previously the callback
// ran under the sweep mutex, so one blocked callback froze every worker's
// stats accumulation (and a callback waiting on sweep output deadlocked).
// All runs must complete while the very first callback is still blocked.
func TestSweepBlockingProgressCallback(t *testing.T) {
	const jobs = 8
	var completed atomic.Int64
	allDone := make(chan struct{})
	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		if completed.Add(1) == jobs {
			close(allDone)
		}
		return Result{}, nil
	})

	release := make(chan struct{})
	var events []ProgressEvent
	o := Options{
		Seeds:       []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Systems:     []string{SystemREFER},
		Parallelism: 4,
		Progress: func(ev ProgressEvent) {
			if len(events) == 0 {
				<-release // first delivery blocks until the test releases it
			}
			events = append(events, ev)
		},
	}
	sweepDone := make(chan error, 1)
	go func() {
		_, err := sweep(context.Background(), "", unitGrid, o)
		sweepDone <- err
	}()

	// Every run finishes even though no progress event has been delivered.
	select {
	case <-allDone:
	case <-time.After(30 * time.Second):
		t.Fatal("workers stalled behind the blocked progress callback")
	}
	// The sweep drains pending events before returning, so it must still be
	// in flight while the first callback blocks.
	select {
	case err := <-sweepDone:
		t.Fatalf("sweep returned before progress drained (err=%v)", err)
	default:
	}
	close(release)
	if err := <-sweepDone; err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(events) != jobs {
		t.Fatalf("delivered %d events, want %d", len(events), jobs)
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Fatalf("event %d has Done=%d: deliveries out of completion order: %+v", i, ev.Done, events)
		}
		if ev.Total != jobs || ev.Aborted {
			t.Fatalf("event %d unexpected: %+v", i, ev)
		}
	}
}

// TestWithDefaultsAppliedOnce pins that Options defaulting is idempotent: a
// second application must be a no-op — down to the seed/system slices keeping
// their backing arrays.
func TestWithDefaultsAppliedOnce(t *testing.T) {
	once := Options{}.withDefaults()
	twice := once.withDefaults()
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("withDefaults not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if &once.Seeds[0] != &twice.Seeds[0] || &once.Systems[0] != &twice.Systems[0] {
		t.Fatal("second withDefaults re-derived the seed/system slices")
	}
}

// TestParallelismValidation pins the edge validation of the sweep-level
// knob: an out-of-range Options.Parallelism is a config error, not a silent
// GOMAXPROCS fallback.
func TestParallelismValidation(t *testing.T) {
	quick := Options{Seeds: []int64{1}, Warmup: time.Second, Duration: time.Second,
		Sensors: 120, Systems: []string{SystemREFER}}

	for _, tc := range []struct {
		name        string
		parallelism int
	}{
		{"negative-parallelism", -1},
		{"absurd-parallelism", MaxParallelism + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := quick
			o.Parallelism = tc.parallelism
			_, err := BuildFigure(context.Background(), "4", o)
			if err == nil || !strings.Contains(err.Error(), "Options.Parallelism") {
				t.Fatalf("err = %v, want mention of Options.Parallelism", err)
			}
		})
	}

	// In-range values at the boundary are accepted.
	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		return Result{System: cfg.System}, nil
	})
	for _, p := range []int{0, MaxParallelism} {
		o := quick
		o.Parallelism = p
		if _, err := BuildFigure(context.Background(), "4", o); err != nil {
			t.Fatalf("Parallelism %d rejected: %v", p, err)
		}
	}
}

// TestFiguresShareGrid pins that a grid runs once however many of its figures
// a request names: the paper's eight figures are three sweeps and 56 runs per
// seed (they were eight and 144), the -extras selection nine sweeps (was 17),
// every shared figure equals the one BuildFigure builds alone, and figures
// arrive in request order even when a grid's figures are not adjacent.
func TestFiguresShareGrid(t *testing.T) {
	stubSweepRun(t, func(_ context.Context, cfg RunConfig) (Result, error) {
		// Distinct per cell and per column, so a projection of the wrong cell
		// or the wrong column cannot pass for the right one.
		f := float64(cfg.Scenario.Seed)*1000 + float64(cfg.Scenario.Sensors) + 10*cfg.Scenario.MaxSpeed + float64(cfg.FaultCount)
		return Result{
			System: cfg.System, Throughput: f, CommEnergy: 2 * f, ConstructionEnergy: 3 * f,
			MeanQoSDelay: time.Duration(f) * time.Millisecond, Created: 100000, Delivered: int(f),
			Stats: RunStats{WorkStats: WorkStats{DESEvents: 1}},
		}, nil
	})
	const seeds = 3
	var paper, extras []string
	for _, spec := range Figures() {
		if spec.Kind == KindPaper {
			paper = append(paper, spec.ID)
		}
		if spec.Kind != KindScale && spec.Kind != KindRecovery {
			extras = append(extras, spec.ID)
		}
	}
	for _, tc := range []struct {
		name         string
		ids          []string
		sweeps, runs int
	}{
		{"paper", paper, 3, 56 * seeds},
		{"extras", extras, 9, 138 * seeds},
		{"non-adjacent", []string{"4", "6", "5"}, 2, 40 * seeds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sweeps, runs int
			o := Options{Seeds: []int64{1, 2, 3}, Progress: func(ev ProgressEvent) {
				runs++
				if ev.Done == 1 {
					sweeps++
				}
			}}
			var got []string
			err := BuildFigures(context.Background(), tc.ids, o, func(fig Figure) error {
				got = append(got, fig.ID)
				alone, err := BuildFigure(context.Background(), fig.ID, Options{Seeds: o.Seeds})
				if err != nil {
					return err
				}
				fig.Stats, alone.Stats = fig.Stats.StripWallClock(), alone.Stats.StripWallClock()
				if !reflect.DeepEqual(fig, alone) {
					t.Errorf("figure %s built with its grid's siblings differs from the figure built alone:\n%+v\nvs\n%+v", fig.ID, fig, alone)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.ids) {
				t.Errorf("figures arrived as %v, requested %v", got, tc.ids)
			}
			if sweeps != tc.sweeps || runs != tc.runs {
				t.Errorf("%d sweeps and %d runs, want %d and %d", sweeps, runs, tc.sweeps, tc.runs)
			}
		})
	}
}

// TestSweepDropsUnbuildableSeed pins what an ErrBuild does outside the
// density grid: REFER failing to embed at one (x, seed) drops that seed from
// every system's cell at that x, so the systems stay paired and the figure's
// sample counts show the drop, and the sweep still succeeds. Only an x that
// loses every seed fails the sweep, with the build errors.
func TestSweepDropsUnbuildableSeed(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	const badX, badSeed = 2, 4
	g := grid{xs: []float64{1, badX, 3}, configure: func(_ Options, x float64, seed int64) RunConfig {
		return RunConfig{Scenario: scenario.Params{Seed: seed, Sensors: int(x)}}
	}}
	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		if cfg.System == SystemREFER && cfg.Scenario.Sensors == badX && cfg.Scenario.Seed == badSeed {
			return Result{}, fmt.Errorf("%w %s: cannot embed", ErrBuild, cfg.System)
		}
		return Result{System: cfg.System, Throughput: float64(cfg.Scenario.Seed)}, nil
	})
	var events []ProgressEvent
	o := Options{Seeds: seeds, Parallelism: 2, Progress: func(ev ProgressEvent) { events = append(events, ev) }}
	table, err := sweep(context.Background(), "", g, o)
	if err != nil {
		t.Fatalf("one unbuildable seed failed the sweep: %v", err)
	}
	for _, ev := range events {
		if ev.Aborted {
			t.Fatalf("a build failure aborted the sweep: %+v", ev)
		}
	}
	if len(table.Systems) != 4 {
		t.Fatalf("sweep ran systems %v, want all four", table.Systems)
	}
	fig := table.Figure(FigureSpec{Column: "throughput"})
	for _, series := range fig.Series {
		for _, p := range series.Points {
			want := []float64{1, 2, 3, 4, 5}
			if p.X == badX {
				want = []float64{1, 2, 3, 5}
			}
			if !reflect.DeepEqual(p.Y.Samples, want) {
				t.Errorf("%s at x=%g: samples %v, want the seeds %v", series.System, p.X, p.Y.Samples, want)
			}
		}
	}

	stubSweepRun(t, func(ctx context.Context, cfg RunConfig) (Result, error) {
		if cfg.System == SystemREFER && cfg.Scenario.Sensors == badX {
			return Result{}, fmt.Errorf("%w %s: cannot embed", ErrBuild, cfg.System)
		}
		return Result{System: cfg.System}, nil
	})
	_, err = sweep(context.Background(), "", g, Options{Seeds: seeds})
	if !errors.Is(err, ErrBuild) {
		t.Fatalf("every seed unbuildable at x=%d: sweep error = %v, want ErrBuild", badX, err)
	}
	if n := strings.Count(err.Error(), "cannot embed"); n != len(seeds) {
		t.Errorf("sweep error names %d build failures, want one per seed (%d): %v", n, len(seeds), err)
	}
}
