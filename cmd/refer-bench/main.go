// Command refer-bench regenerates the paper's evaluation figures (4–11) as
// text tables: each cell is mean ± 95 % CI over the seed set. Figures that
// plot different metrics of the same experiment (4–5, 6–7, 8–11, E1–E2,
// L1–L3, S1–S3) share one sweep: each grid runs once per invocation.
//
// Usage:
//
//	refer-bench                 # quick pass: 3 seeds, 300 s windows
//	refer-bench -full           # paper-scale: 5 seeds, 1000 s windows
//	refer-bench -fig 4 -fig 5   # only selected figures
//	refer-bench -extras         # also the ablation (A1–A3), extension (E1–E3) and lifetime (L1–L3) studies
//	refer-bench -json           # machine-readable output on stdout
//	refer-bench -trace 100      # packet tracing, sampling every 100th packet
//	refer-bench -chaos f.json   # attach a fault-injection schedule to every run
//	refer-bench -energy radio   # price packets with the first-order radio model
//	refer-bench -recovery       # enable self-healing recovery on every REFER run
//	refer-bench -parallel 4     # bound sweep concurrency (figure output is identical)
//
// A live progress line is written to stderr while sweeps run (suppress with
// -quiet); Ctrl-C cancels the remaining runs cleanly. -cpuprofile and
// -memprofile write pprof profiles of the whole invocation. Performance is
// measured by `go run ./benchmark` (benchmark/README.md), not by this command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"refer"
)

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }

func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "refer-bench:", err)
	os.Exit(1)
}

func main() {
	var (
		full       = flag.Bool("full", false, "paper-scale runs (5 seeds, 1000 s windows)")
		seeds      = flag.Int("seeds", 0, "override the number of seeds")
		extras     = flag.Bool("extras", false, "also run the ablation (A1–A3), extension (E1–E3) and lifetime (L1–L3) studies")
		csvDir     = flag.String("csv", "", "also write each figure as <dir>/fig<ID>.csv")
		jsonOut    = flag.Bool("json", false, "emit the figures as JSON on stdout instead of text tables")
		traceN     = flag.Int("trace", 0, "attach packet tracing to every run, keeping every Nth packet's event stream (0 = off)")
		chaosPath  = flag.String("chaos", "", "attach the fault-injection schedule in this JSON file to every run (see EXPERIMENTS.md)")
		energyName = flag.String("energy", "", "per-packet cost model for every run: paper, radio or harvesting (default: each figure's own default — paper constants, except the L* lifetime figures which default to radio)")
		recoveryOn = flag.Bool("recovery", false, "enable the self-healing recovery protocols (corner re-election, cell merge, CAN takeover) on every REFER run")
		parallel   = flag.Int("parallel", 0, "concurrent simulation runs per sweep (0 = GOMAXPROCS); figure output is identical at any setting")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line on stderr")
		warmup     = flag.Duration("warmup", 0, "override the warmup window (e.g. 5s; mainly for quick -fig S* passes)")
		duration   = flag.Duration("duration", 0, "override the measurement window (e.g. 20s)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		figs       figList
	)
	flag.Var(&figs, "fig", "figure to regenerate by registry ID (repeatable; default all)")
	flag.Parse()

	// The parallelism knob is validated here at the edge (and again by the
	// experiment layer) so a typo'd flag is a clear config error up front,
	// not a silent GOMAXPROCS fallback three sweeps in.
	if *parallel < 0 || *parallel > refer.MaxParallelism {
		fatal(fmt.Errorf("-parallel must be in [0, %d], got %d", refer.MaxParallelism, *parallel))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := refer.Options{
		Seeds:       []int64{1, 2, 3},
		Warmup:      100 * time.Second,
		Duration:    300 * time.Second,
		TraceSample: *traceN,
		Parallelism: *parallel,
	}
	if *full {
		opts.Seeds = []int64{1, 2, 3, 4, 5}
		opts.Duration = 1000 * time.Second
	}
	if *chaosPath != "" {
		sched, err := refer.LoadChaosSchedule(*chaosPath)
		if err != nil {
			fatal(err)
		}
		opts.Chaos = sched
	}
	if *energyName != "" {
		opts.Energy = refer.EnergySpec{Model: *energyName}
		if err := opts.Energy.Validate(); err != nil {
			fatal(err)
		}
	}
	if *recoveryOn {
		opts.Recovery = refer.RecoverySpec{Enabled: true}
	}
	if *seeds > 0 {
		opts.Seeds = opts.Seeds[:0]
		for i := 1; i <= *seeds; i++ {
			opts.Seeds = append(opts.Seeds, int64(i))
		}
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *duration > 0 {
		opts.Duration = *duration
	}
	if !*quiet {
		opts.Progress = func(ev refer.ProgressEvent) {
			state := ""
			if ev.Aborted {
				// The sweep stopped scheduling; Total is clamped to the runs
				// actually started, so Done/Total still converges.
				state = " aborting"
			}
			fmt.Fprintf(os.Stderr, "\rfig %-3s %3d/%-3d runs  %8s%s ",
				ev.FigureID, ev.Done, ev.Total, ev.Elapsed.Round(100*time.Millisecond), state)
		}
	}

	// Select figures from the registry: the paper set by default, every
	// kind except the network-growth and recovery studies with -extras (the
	// 10,000-node scale points dwarf everything else, and the recovery
	// campaigns are regenerated by TestGoldenFigureCSV; ask for S*/R*
	// explicitly with -fig), or exactly the ones named with -fig.
	var selected []refer.FigureSpec
	if len(figs) > 0 {
		for _, id := range figs {
			spec, ok := refer.FigureByID(id)
			if !ok {
				var known []string
				for _, s := range refer.Figures() {
					known = append(known, s.ID)
				}
				fmt.Fprintf(os.Stderr, "refer-bench: unknown figure %q (known: %s)\n",
					id, strings.Join(known, ", "))
				os.Exit(2)
			}
			selected = append(selected, spec)
		}
	} else {
		for _, spec := range refer.Figures() {
			if spec.Kind == refer.KindPaper || (*extras && spec.Kind != refer.KindScale && spec.Kind != refer.KindRecovery) {
				selected = append(selected, spec)
			}
		}
	}

	// figsOf[grid] lists the selected figures that share the grid's sweep,
	// for the completion line printed once per grid.
	ids := make([]string, len(selected))
	figsOf := make(map[string][]string)
	for i, spec := range selected {
		ids[i] = spec.ID
		figsOf[spec.Grid] = append(figsOf[spec.Grid], spec.ID)
	}

	start := time.Now()
	var results []refer.Figure
	err := refer.BuildFigures(ctx, ids, opts, func(fig refer.Figure) error {
		spec := selected[len(results)]
		if shared := figsOf[spec.Grid]; !*quiet && shared != nil {
			fmt.Fprintf(os.Stderr, "\rfigs %s  %d runs in %v (%.0f events/s)%s\n",
				strings.Join(shared, ","), fig.Stats.Runs, fig.Stats.WallClock.Round(time.Millisecond),
				fig.Stats.EventsPerSec, strings.Repeat(" ", 12))
			delete(figsOf, spec.Grid)
		}
		results = append(results, fig)
		if !*jsonOut {
			fmt.Println(fig.Table())
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, "fig"+spec.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		fatal(err)
	}

	if *jsonOut {
		out := struct {
			Figures  []refer.Figure `json:"figures"`
			WallTime time.Duration  `json:"wall_time_ns"`
		}{Figures: results, WallTime: time.Since(start)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	}

	// Diagnostics go to stderr so -json keeps stdout parseable.
	diag := os.Stdout
	if *jsonOut {
		diag = os.Stderr
	}
	fmt.Fprintf(diag, "total wall time: %v\n", time.Since(start).Round(time.Second))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}
