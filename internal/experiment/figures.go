package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"refer/internal/chaos"
	"refer/internal/energy"
	"refer/internal/metrics"
	"refer/internal/recovery"
	"refer/internal/trace"
)

// Options scales the figure sweeps. The zero value reproduces the paper's
// full parameters (1000 s runs); tests and quick benches shrink them.
type Options struct {
	// Seeds are the independent repetitions behind each point's 95 % CI.
	Seeds []int64
	// Warmup and Duration override the run windows when non-zero.
	Warmup   time.Duration
	Duration time.Duration
	// Sensors overrides the default 200-sensor population for the
	// mobility/fault figures when non-zero.
	Sensors int
	// Systems restricts the comparison; empty means all four.
	Systems []string
	// PacketsPerSource overrides the burst size when non-zero.
	PacketsPerSource int
	// Parallelism bounds concurrent simulation runs (0 = GOMAXPROCS).
	// Values outside [0, MaxParallelism] are a config error.
	Parallelism int
	// Progress, when non-nil, receives one event after every completed
	// simulation run of a sweep. Calls are serialized (never concurrent)
	// and delivered in completion order on a dedicated goroutine, so a
	// slow — even blocking — callback never stalls the sweep workers. The
	// sweep drains all pending events before returning.
	Progress func(ProgressEvent)
	// TraceSample, when > 0, attaches a packet-trace recorder to every run
	// of the sweep, storing every TraceSample-th packet's event stream.
	// Trace counters (which are always exact) aggregate into the figure's
	// SweepStats. Zero disables tracing entirely.
	TraceSample int
	// Chaos, when non-nil, attaches the fault schedule to every run of the
	// sweep that does not already carry its own (figures like A3 build
	// per-point schedules). Applied-fault counters aggregate into the
	// figure's SweepStats.
	Chaos *chaos.Schedule
	// Energy, when non-zero, applies the cost-model spec to every run of
	// the sweep that does not already carry its own (the lifetime figures
	// default to the radio model). The zero value keeps the paper's flat
	// constants, leaving every pre-existing figure CSV byte-identical.
	Energy energy.Spec
	// Recovery, when non-zero, applies the self-healing recovery spec to
	// every run of the sweep that does not already carry its own. The zero
	// value attaches nothing (SystemREFERRecovery still self-enables its
	// defaults), leaving every pre-existing figure CSV byte-identical.
	Recovery recovery.Spec
}

// ProgressEvent reports one finished simulation run of a sweep.
type ProgressEvent struct {
	// FigureID is the registry ID the sweep was requested under: the first
	// requested figure of the grid being built. Later figures of the same
	// request that share the grid are projected from its table and emit no
	// events of their own.
	FigureID string
	// Done runs out of Total have finished (including this one).
	Done, Total int
	// System, Seed and X identify the run within the sweep grid.
	System string
	Seed   int64
	X      float64
	// Err is the run's error, nil on success.
	Err error
	// Elapsed is the wall time since the sweep started.
	Elapsed time.Duration
	// Aborted marks events emitted after the sweep stopped scheduling new
	// runs (a run failed or the context was cancelled). On aborted events
	// Total is clamped to the number of runs actually started, so the
	// final event of an aborted sweep reports Done == Total — a consumer
	// polling progress can tell "aborted" (Aborted set, counts equal)
	// from "still in flight" (counts short, Aborted clear) instead of
	// seeing Done < Total forever.
	Aborted bool
}

// SweepStats aggregates the per-run observability blocks of a figure's
// sweep, split by type exactly as RunStats is: the host half depends on
// machine load, the work half on the binary, the sim half on the Options
// alone.
type SweepStats struct {
	SweepHostStats
	SweepWorkStats
	SweepSimStats
}

// SweepHostStats is the host-dependent half of SweepStats. The embedded
// WallClock is the sweep's host time end to end and EventsPerSec the sweep's
// DESEvents over it; RunWallClock is the sum of the individual runs' wall
// clocks (> WallClock when parallel).
type SweepHostStats struct {
	HostStats
	RunWallClock time.Duration `json:"run_wall_clock_ns"`
}

// SweepWorkStats is the implementation-effort half of SweepStats: the runs'
// WorkStats counters a sweep reports, summed.
type SweepWorkStats struct {
	DESEvents          uint64 `json:"des_events"`
	RouteTableHits     uint64 `json:"route_table_hits"`
	RouteTableMisses   uint64 `json:"route_table_misses"`
	MobilityEvals      uint64 `json:"mobility_evals"`
	NeighborCandidates uint64 `json:"neighbor_candidates"`
	RelayScans         uint64 `json:"relay_scans"`
}

// SweepSimStats is the model half of SweepStats.
type SweepSimStats struct {
	// Runs is the number of simulation runs that finished (successfully).
	Runs int `json:"runs"`
	// FailoverSwitches sums the runs' Theorem 3.8 alternate-path decisions.
	FailoverSwitches uint64 `json:"failover_switches"`
	// Trace sums the runs' trace counters; zero unless TraceSample > 0.
	Trace trace.Counts `json:"trace"`
	// Chaos sums the runs' applied-fault counters; zero unless a schedule
	// was attached.
	Chaos chaos.Stats `json:"chaos"`
	// Recovery sums the runs' self-healing counters (virtual-time
	// latencies); zero unless a recovery manager was attached.
	Recovery recovery.Stats `json:"recovery"`
}

// StripWallClock returns the stats without their host half — what is left
// is a deterministic function of the Options and the binary, so cached and
// replayed figures compare bitwise.
func (s SweepStats) StripWallClock() SweepStats {
	s.SweepHostStats = SweepHostStats{}
	return s
}

// accumulate folds one run's stats into the sweep totals.
func (s *SweepStats) accumulate(r RunStats) {
	s.Runs++
	s.RunWallClock += r.WallClock
	s.DESEvents += r.DESEvents
	s.RouteTableHits += uint64(r.RouteTableHits)
	s.RouteTableMisses += uint64(r.RouteTableMisses)
	s.MobilityEvals += r.MobilityEvals
	s.NeighborCandidates += r.NeighborCandidates
	s.RelayScans += r.RelayScans
	s.FailoverSwitches += uint64(r.FailoverSwitches)
	s.Trace.Add(r.Trace)
	s.Chaos.Add(r.Chaos)
	s.Recovery.Add(r.Recovery)
}

// finish stamps the end-to-end timing fields.
func (s *SweepStats) finish(start time.Time) {
	s.WallClock = time.Since(start)
	if secs := s.WallClock.Seconds(); secs > 0 {
		s.EventsPerSec = float64(s.DESEvents) / secs
	}
}

// validate rejects options no sweep can honour; sweep and OptionsKey both
// call it, so library, CLI and wire callers meet the same checks.
func (o Options) validate() error {
	if o.Parallelism < 0 || o.Parallelism > MaxParallelism {
		return fmt.Errorf("experiment: Options.Parallelism must be in [0, %d], got %d", MaxParallelism, o.Parallelism)
	}
	if o.Warmup < 0 || o.Duration < 0 || o.Sensors < 0 || o.PacketsPerSource < 0 || o.TraceSample < 0 {
		return fmt.Errorf("experiment: Options windows and counts must be >= 0")
	}
	for _, sys := range o.Systems {
		if !KnownSystem(sys) {
			return errUnknownSystem(sys)
		}
	}
	return validateSpecs(o.Chaos, o.Energy, o.Recovery)
}

func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if len(o.Systems) == 0 {
		o.Systems = AllSystems()
	}
	if o.Sensors == 0 {
		o.Sensors = 200
	}
	return o
}

// Point is one x-position of a figure series.
type Point struct {
	X float64         `json:"x"`
	Y metrics.Summary `json:"y"`
}

// Series is one system's curve.
type Series struct {
	System string  `json:"system"`
	Points []Point `json:"points"`
}

// Figure is a reproduced evaluation figure: per-system series over a sweep.
type Figure struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	XLabel string     `json:"x_label"`
	YLabel string     `json:"y_label"`
	Series []Series   `json:"series"`
	Stats  SweepStats `json:"stats"`
}

// sweepRun executes one simulation of a sweep; indirected so tests can
// substitute instant or failing runs.
var sweepRun = RunContext

// Table is one executed grid: every run's Result, from which each figure of
// the grid is a projection (Table.Figure). Cells[s][x] holds the runs of
// Systems[s] at Xs[x], one per seed in seed order, so a table is the same
// value at any sweep parallelism once its host half is stripped.
type Table struct {
	XLabel  string
	Systems []string
	Xs      []float64
	Cells   [][][]Result
	Stats   SweepStats
}

// StripWallClock drops the host half of the sweep's stats and of every
// cell's, in place — what is left is a deterministic function of the Options.
func (t *Table) StripWallClock() {
	t.Stats = t.Stats.StripWallClock()
	for _, row := range t.Cells {
		for _, cell := range row {
			for i := range cell {
				cell[i].Stats = cell[i].Stats.StripWallClock()
			}
		}
	}
}

// Figure projects the table onto spec's column: each (system, x) cell becomes
// the summary of its runs' column values.
func (t Table) Figure(spec FigureSpec) Figure {
	col := columns[spec.Column]
	fig := Figure{ID: spec.ID, Title: spec.Title, XLabel: t.XLabel, YLabel: col.yLabel, Stats: t.Stats}
	for si, sys := range t.Systems {
		series := Series{System: sys, Points: make([]Point, 0, len(t.Xs))}
		for xi, x := range t.Xs {
			vals := make([]float64, 0, len(t.Cells[si][xi]))
			for _, r := range t.Cells[si][xi] {
				vals = append(vals, col.value(r))
			}
			sort.Float64s(vals)
			series.Points = append(series.Points, Point{X: x, Y: metrics.Summarize(vals)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// sweep runs g's cross product systems × xs × seeds under the options g
// resolves o to and returns every run's Result as a Table. label names the
// request in progress events and CPU-profile samples. Runs execute in
// parallel; a failed run or a cancelled context stops further jobs from being
// scheduled, and every run error — each wrapped with the failing run's
// system, seed and x — is aggregated with errors.Join. The one exception is
// grid.buildFailureIsZero, under which the zero Result stands in for an
// ErrBuild run (and is not counted in SweepStats.Runs).
func sweep(ctx context.Context, label string, g grid, o Options) (Table, error) {
	if err := o.validate(); err != nil {
		return Table{}, err
	}
	o = g.resolve(o)
	type job struct {
		cfg RunConfig
		out *Result
		x   float64
	}
	var jobs []job
	cells := make([][][]Result, len(o.Systems))
	for si, sys := range o.Systems {
		cells[si] = make([][]Result, len(g.xs))
		for xi, x := range g.xs {
			cells[si][xi] = make([]Result, len(o.Seeds))
			for ki, seed := range o.Seeds {
				cfg := g.configure(o, x, seed)
				cfg.System = sys
				if o.Warmup > 0 {
					cfg.Warmup = o.Warmup
				}
				if o.Duration > 0 {
					cfg.Duration = o.Duration
				}
				if o.PacketsPerSource > 0 {
					cfg.PacketsPerSource = o.PacketsPerSource
				}
				if cfg.Chaos == nil {
					cfg.Chaos = o.Chaos
				}
				if cfg.Energy.IsZero() {
					cfg.Energy = o.Energy
				}
				if cfg.Recovery.IsZero() {
					cfg.Recovery = o.Recovery
				}
				jobs = append(jobs, job{cfg: cfg, out: &cells[si][xi][ki], x: x})
			}
		}
	}

	parallelism := o.Parallelism
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	var (
		mu        sync.Mutex
		errs      []error
		failed    bool
		done      int
		scheduled int
		stats     SweepStats
		wg        sync.WaitGroup
		sem       = make(chan struct{}, parallelism)
	)
	// Progress callbacks run in completion order on one goroutine draining
	// events. A sweep emits at most one event per job plus the terminal abort
	// event, so a worker's send (under mu) never blocks: a slow or blocking
	// callback cannot stall the other workers, and one that itself waits on
	// sweep output cannot deadlock the sweep.
	var events chan ProgressEvent
	var delivered chan struct{}
	if o.Progress != nil {
		events = make(chan ProgressEvent, len(jobs)+1)
		delivered = make(chan struct{})
		go func() {
			defer close(delivered)
			for ev := range events {
				o.Progress(ev)
			}
		}()
	}
	total := len(jobs)
	for _, j := range jobs {
		j := j
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		mu.Lock()
		if failed || ctx.Err() != nil {
			mu.Unlock()
			wg.Done()
			<-sem
			break
		}
		scheduled++
		mu.Unlock()
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := j.cfg
			if o.TraceSample > 0 {
				cfg.Trace = trace.NewRecorder(o.TraceSample)
			}
			var res Result
			var err error
			// The figure label attributes this worker's CPU samples to the
			// request it serves.
			pprof.Do(ctx, pprof.Labels("figure", label), func(ctx context.Context) {
				res, err = sweepRun(ctx, cfg)
			})
			mu.Lock()
			done++
			switch {
			case err == nil:
				*j.out = res
				stats.accumulate(res.Stats)
			case g.buildFailureIsZero && errors.Is(err, ErrBuild):
				err = nil // cannot operate this sparse: the cell keeps its zero Result
			default:
				failed = true
				errs = append(errs, fmt.Errorf("experiment: %s seed=%d x=%g: %w",
					j.cfg.System, j.cfg.Scenario.Seed, j.x, err))
			}
			aborted := failed || ctx.Err() != nil
			tot := total
			if aborted {
				tot = scheduled // no further runs will start
			}
			if events != nil {
				events <- ProgressEvent{
					FigureID: label,
					Done:     done,
					Total:    tot,
					System:   j.cfg.System,
					Seed:     j.cfg.Scenario.Seed,
					X:        j.x,
					Err:      err,
					Elapsed:  time.Since(start),
					Aborted:  aborted,
				}
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	// A sweep aborted before any run started would otherwise emit nothing;
	// send one terminal event so consumers still see Aborted, Done == Total.
	if events != nil {
		if (failed || ctx.Err() != nil) && done == 0 {
			events <- ProgressEvent{
				FigureID: label,
				Aborted:  true,
				Err:      ctx.Err(),
				Elapsed:  time.Since(start),
			}
		}
		close(events)
		<-delivered // every event is delivered before sweep returns
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return Table{}, errors.Join(errs...)
	}
	stats.finish(start)
	return Table{XLabel: g.xLabel, Systems: o.Systems, Xs: g.xs, Cells: cells, Stats: stats}, nil
}

// Table renders the figure as an aligned text table (one row per x value,
// one column per system, mean ± 95 % CI).
func (f Figure) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s — %s [%s]\n", f.ID, f.Title, f.YLabel)
	fmt.Fprintf(&sb, "%-18s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%-22s", s.System)
	}
	sb.WriteString("\n")
	if len(f.Series) == 0 {
		return sb.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&sb, "%-18.4g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(&sb, "%-22s", s.Points[i].Y.String())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders the figure as comma-separated values: a header row
// (x label, then "<system> mean","<system> ci95" pairs) and one row per
// sweep position. Suitable for direct plotting.
func (f Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		fmt.Fprintf(&sb, ",%s,%s", csvEscape(s.System+" mean"), csvEscape(s.System+" ci95"))
	}
	sb.WriteString("\n")
	if len(f.Series) == 0 {
		return sb.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&sb, "%g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(&sb, ",%g,%g", s.Points[i].Y.Mean, s.Points[i].Y.CI95)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// SeriesFor returns the series of the named system, if present.
func (f Figure) SeriesFor(system string) (Series, bool) {
	for _, s := range f.Series {
		if s.System == system {
			return s, true
		}
	}
	return Series{}, false
}

// Means returns a system's point means in x order.
func (s Series) Means() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Y.Mean
	}
	return out
}
