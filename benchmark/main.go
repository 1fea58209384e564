// Command benchmark is the repository's benchmark: five named workloads,
// end-to-end metrics with fixed regression bounds, and per-layer metrics
// measured from outside (counts, a span pass, isolated probes). README.md in
// this directory has the tables; BENCHMARK.json at the repository root is
// the machine-readable contract.
//
//	go run ./benchmark -workload refer_heavy -seed 3 -seconds 14 -trace 0
//	go run ./benchmark              # every workload, both passes
//	go run ./benchmark -selfcheck   # end-to-end set twice, compared to the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"refer"
	"refer/internal/simd"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 14

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	selfcheck bool
	// smoke is set by the package's tests only: shrunken workloads and
	// token probe batches, to check the plumbing rather than measure.
	smoke bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all five, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "derives every generated input")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (counts, span pass, probes)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice and compare the two against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outcome is the last line a single-workload run prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process and prints its report,
// ending with the outcome line.
func runOne(o options, out io.Writer) error {
	def, ok := workloadByName(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	fmt.Fprintf(out, "benchmark workload=%s seed=%d seconds=%d trace=%d\n", def.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "why: %s\n", def.why)
	printHost(out)
	spinStart := spinNs()

	r := &report{correct: true, metrics: map[string]float64{}}
	var err error
	catalogue := endToEnd
	switch {
	case o.trace == 1:
		catalogue = perLayer
		err = perLayerPass(def, o, r)
	case def.configs == nil:
		err = serveEndToEnd(o, r)
	default:
		err = simEndToEnd(def, o, r)
	}
	if err != nil {
		return err
	}

	spinEnd := spinNs()
	r.metrics["bench.spin_ns"] = spinEnd
	attempted, failed := r.attempted()
	if failed > 0 {
		r.correct = false
	}
	fmt.Fprintf(out, "inputs: %d infeasible candidate seeds skipped\n", r.skipped)
	if r.note != "" {
		fmt.Fprintln(out, r.note)
	}
	for _, m := range catalogue {
		if s, ok := r.timings[m.name]; ok {
			fmt.Fprintf(out, "timing %-26s n=%-3d min=%-12.6g median=%-12.6g max=%-12.6g %s\n",
				m.name, len(s), s.min(), s.median(), s.max(), m.unit)
		}
	}
	res := outcome{Correct: r.correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range catalogue {
		fmt.Fprintf(out, "metric %-26s %-14.6g %s\n", m.name, r.metrics[m.name], m.unit)
		res.Metrics[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
	}
	fmt.Fprintf(out, "failed_share %.6g (%d of %d operations)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	fmt.Fprintf(out, "sim_digest %s %s\n", def.name, r.simDigest)
	fmt.Fprintf(out, "bench.spin_ns start=%.4f end=%.4f (moved %+.1f %%)\n", spinStart, spinEnd, 100*(spinEnd-spinStart)/spinStart)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// simEndToEnd is the end-to-end pass of a simulation workload: generate,
// time the set-up passes, then repeat the workload for the measuring time.
func simEndToEnd(def workloadDef, o options, r *report) error {
	g := newGenerator(o.seed, def.name, o.smoke)
	cfgs, err := def.configs(g)
	if err != nil {
		return err
	}
	r.skipped = g.skipped
	for i := 0; i < setupPasses; i++ {
		s, err := setupConfigs(cfgs)
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, s)
	}
	r.reps = repeatFor(time.Duration(o.seconds)*time.Second, func() repetition { return runConfigs(cfgs) })
	r.simDigest = r.reps[0].digest
	r.note = fmt.Sprintf("%d runs per repetition, %d repetitions, one goroutine, parallelism knobs at 0", len(cfgs), len(r.reps))
	r.endToEndMetrics()
	return nil
}

// serveEndToEnd is the end-to-end pass of simd_serve.
func serveEndToEnd(o options, r *report) error {
	g := newGenerator(o.seed, o.workload, o.smoke)
	plan, err := newServePlan(g)
	if err != nil {
		return err
	}
	r.skipped = g.skipped
	var serveErr error
	r.reps = repeatFor(time.Duration(o.seconds)*time.Second, func() repetition {
		rep, setupS, _, err := serveOnce(plan)
		if err != nil && serveErr == nil {
			serveErr = err
		}
		r.setupS = append(r.setupS, setupS)
		return rep
	})
	if serveErr != nil {
		return serveErr
	}
	if !servedMatchesRun(plan, r.reps[0]) {
		r.correct = false
	}
	r.simDigest = r.reps[0].digest
	r.note = fmt.Sprintf("%d operations per repetition over %d distinct configs, %d repetitions on a fresh server each; closed loop, %d clients, %d workers, loopback HTTP (httptest)",
		len(plan.ops), len(plan.requests), len(r.reps), serveClients, serveWorkers)
	r.endToEndMetrics()
	return nil
}

// perLayerPass is the -trace 1 run: one plain repetition for the counts,
// the span pass over the same configs (simulation workloads), and the layer
// probes in whatever measuring time is left.
func perLayerPass(def workloadDef, o options, r *report) error {
	start := time.Now()
	g := newGenerator(o.seed, def.name, o.smoke)
	var (
		cfgs  []refer.RunConfig
		plain repetition
		m     simd.Metrics
	)
	if def.configs != nil {
		var err error
		if cfgs, err = def.configs(g); err != nil {
			return err
		}
		plain = runConfigs(cfgs)
	} else {
		plan, err := newServePlan(g)
		if err != nil {
			return err
		}
		if plain, _, m, err = serveOnce(plan); err != nil {
			return err
		}
		cfgs = []refer.RunConfig{serveConfig(plan.requests[0].Seed)}
	}
	r.reps = []repetition{plain}
	r.simDigest = plain.digest
	countMetrics(plain, m, r.metrics)

	if def.configs != nil {
		runtime.GC() // as before a repetition, so the overhead ratio is fair
		spans, wall, mismatches := spanPass(cfgs, plain.results)
		if mismatches > 0 {
			r.correct = false
		}
		spanMetrics(spans, r.metrics)
		r.metrics["bench.span_overhead"] = ratio(wall, plain.wallS)
		r.note = fmt.Sprintf("span pass: %d configs, %d disagree with refer.Run", len(cfgs), mismatches)
	}

	probeCfg := cfgs[0]
	for _, cfg := range cfgs {
		if referFamily(cfg.System) {
			probeCfg = cfg
			break
		}
	}
	hit, err := g.feasible(func(seed int64) []refer.RunConfig { return []refer.RunConfig{serveConfig(seed)} })
	if err != nil {
		return err
	}
	r.skipped = g.skipped
	// Spread what is left of the measuring time over the probes' batches
	// (calibration included), within sane limits for one batch.
	const probeSlots = 20 * (probeBatches + 2)
	d := (time.Duration(o.seconds)*time.Second - time.Since(start)) / probeSlots
	if d < 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	if d > 300*time.Millisecond {
		d = 300 * time.Millisecond
	}
	if o.smoke {
		d = 100 * time.Microsecond
	}
	return runProbes(probeCfg, hit[0].Scenario.Seed, d, r.metrics)
}

// countMetrics fills the (a) metrics from one repetition's results and, for
// simd_serve, the server's own counters.
func countMetrics(rep repetition, m simd.Metrics, out map[string]float64) {
	for _, res := range rep.results {
		s := res.Stats
		out["des.events"] += float64(s.DESEvents)
		out["world.neighbor_rebuilds"] += float64(s.NeighborRebuilds)
		out["world.neighbor_hits"] += float64(s.NeighborHits)
		out["world.grid_rebuilds"] += float64(s.GridRebuilds)
		out["world.fault_injections"] += float64(s.FaultInjections)
		out["world.lost_sends"] += float64(s.LostSends)
		out["kautz.route_table_hits"] += float64(s.RouteTableHits)
		out["kautz.route_table_misses"] += float64(s.RouteTableMisses)
		out["core.failover_switches"] += float64(s.FailoverSwitches)
		out["core.maintain_checks"] += float64(s.MaintainChecks)
		out["core.rehomes"] += float64(s.Rehomes)
		out["chaos.faults_applied"] += float64(s.Chaos.Crashes)
		out["recovery.sweeps"] += float64(s.Recovery.Sweeps)
		out["recovery.reelections"] += float64(s.Recovery.Reelections)
		out["recovery.merges"] += float64(s.Recovery.Merges)
		out["recovery.takeovers"] += float64(s.Recovery.Takeovers)
	}
	out["world.neighbor_hit_ratio"] = ratio(out["world.neighbor_hits"], out["world.neighbor_hits"]+out["world.neighbor_rebuilds"])
	out["energy.comm_j"] = rep.sim.commJ
	out["energy.construction_j"] = rep.sim.constructionJ
	out["metrics.created"] = float64(rep.sim.created)
	out["metrics.delivered"] = float64(rep.sim.delivered)
	out["metrics.qos"] = float64(rep.sim.qos)
	out["metrics.dropped"] = float64(rep.sim.dropped)
	out["simd.cache_hits"] = float64(m.CacheHits)
	out["simd.cache_misses"] = float64(m.CacheMisses)
	out["simd.deduped"] = float64(m.Deduped)
	out["simd.rejected"] = float64(m.Rejected)
	out["simd.executed"] = float64(m.Completed)
	out["simd.cache_hit_ratio"] = m.CacheHitRate
	out["bench.failed_share"] = ratio(float64(rep.failed), float64(rep.attempted))
}

func spanMetrics(t spanTotals, out map[string]float64) {
	out["scenario.build_s"] = t.seconds[spanScenarioBuild]
	out["system.build_s"] = t.seconds[spanSystemBuild]
	out["experiment.attach_s"] = t.seconds[spanAttach]
	out["des.warmup_drain_s"] = t.seconds[spanWarmupDrain]
	out["des.window_drain_s"] = t.seconds[spanWindowDrain]
	out["des.drain_self_s"] = t.drainSelf
	out["core.maintain_s"] = t.seconds[spanMaintain]
	out["core.maintain_rounds"] = float64(t.count[spanMaintain])
	out["core.inject_s"] = t.seconds[spanInject]
	out["core.inject_calls"] = float64(t.count[spanInject])
	out["world.set_failed_s"] = t.seconds[spanSetFailed]
}

// printHost writes the host record: enough to tell whether two outputs came
// from comparable machines.
func printHost(out io.Writer) {
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), gitCommit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // e.g. an exported tree that is not a git checkout
	}
	return strings.TrimSpace(string(out))
}

// child re-executes this binary for one workload, so one workload's heap
// cannot tax the next and peak RSS is per workload. Its report is echoed and
// its outcome line decoded.
func child(o options, workload string, trace int) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	os.Stdout.Write(data)
	if err != nil {
		return outcome{}, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var res outcome
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return outcome{}, fmt.Errorf("workload %s: decoding the outcome line: %w", workload, err)
	}
	return res, nil
}

// runAll runs every workload, end-to-end pass then per-layer pass.
func runAll(o options) error {
	correct := true
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(o, w.name, trace)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
			fmt.Println()
		}
	}
	if !correct {
		return fmt.Errorf("at least one workload reported incorrect outputs")
	}
	return nil
}

// selfcheck runs the end-to-end set twice and holds the second against the
// first with the benchmark's own bounds: the same code must agree with
// itself before any other comparison means anything.
func selfcheck(o options) error {
	hostSpin := spinNs()
	var sets [2]map[string]outcome
	for i := range sets {
		sets[i] = map[string]outcome{}
		for _, w := range workloads {
			res, err := child(o, w.name, 0)
			if err != nil {
				return err
			}
			sets[i][w.name] = res
			fmt.Println()
		}
	}
	exceeded := 0
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-14s outputs incorrect\n", w.name)
			exceeded++
		}
		for _, m := range endToEnd {
			first, second := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			worse := ratio(second-first, first)
			if m.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.bound {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, m.name, first, second, 100*worse, 100*m.bound, verdict)
		}
	}
	if end := spinNs(); end > 1.1*hostSpin || end < 0.9*hostSpin {
		fmt.Printf("warning: bench.spin_ns moved from %.4f to %.4f between start and end; the host was not steady\n", hostSpin, end)
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bound", exceeded)
	}
	return nil
}
