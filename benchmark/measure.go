package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"refer"
)

// Repetition floors: a run measures until -seconds has elapsed but never
// fewer than these, so every reported median has a middle.
const (
	minRepetitions = 3
	setupPasses    = 5
)

// simTotals accumulates the virtual-time outcome of a set of runs; the three
// sim_* metrics are ratios over it. Virtual time repeats exactly, so two
// commits compare bit for bit.
type simTotals struct {
	created, delivered, qos, dropped int
	delay                            time.Duration // summed over deliveries
	commJ, constructionJ             float64
}

func (t *simTotals) add(r refer.Result) {
	t.created += r.Created
	t.delivered += r.Delivered
	t.qos += r.QoS
	t.dropped += r.Dropped
	t.delay += r.MeanDelay * time.Duration(r.Delivered)
	t.commJ += r.CommEnergy
	t.constructionJ += r.ConstructionEnergy
}

func (t simTotals) qosRatio() float64 { return ratio(float64(t.qos), float64(t.created)) }

func (t simTotals) delayMs() float64 {
	return ratio(float64(t.delay)/float64(time.Millisecond), float64(t.delivered))
}

func (t simTotals) energyPerQoSPacket() float64 {
	return ratio(t.commJ+t.constructionJ, float64(t.qos))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// repetition is one timed pass over a workload's operations.
type repetition struct {
	wallS     float64
	allocMB   float64
	events    uint64
	opMs      sample // latency of each served operation (see runConfigs, serveOnce)
	attempted int
	failed    int
	digest    string
	sim       simTotals
	results   []refer.Result // simulation workloads: one per config, host timing stripped
}

// measured instruments the timed region shared by every workload: collect
// garbage first so one repetition's heap does not tax the next, then take
// the wall clock and the allocation delta around body.
func measured(body func(rep *repetition)) repetition {
	var rep repetition
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	body(&rep)
	rep.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	rep.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return rep
}

// runConfigs is one repetition of a simulation workload: refer.Run on each
// config in turn from this goroutine, parallelism knobs at their zero
// defaults, no trace recorder.
func runConfigs(cfgs []refer.RunConfig) repetition {
	rep := measured(func(rep *repetition) {
		for _, cfg := range cfgs {
			rep.attempted++
			res, err := refer.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: run failed: %v\n", err)
				rep.failed++
				continue
			}
			res.Stats = res.Stats.StripWallClock()
			rep.results = append(rep.results, res)
		}
	})
	// What a user of a simulation workload waits for is the whole repetition
	// — the figure set, the large run, the fault campaign — so that is its
	// one served operation; single runs inside it are too few and too
	// dependent on the deployment drawn to carry a percentile.
	rep.opMs = sample{rep.wallS * 1000}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, res := range rep.results {
		rep.events += res.Stats.DESEvents
		rep.sim.add(res)
		if err := enc.Encode(res); err != nil {
			panic(err) // Result is plain data
		}
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	return rep
}

// setupConfigs is one set-up pass of a simulation workload: the summed time
// of BuildWorld + NewSystem + Build over its configs.
func setupConfigs(cfgs []refer.RunConfig) (float64, error) {
	start := time.Now()
	for _, cfg := range cfgs {
		if _, _, err := buildSystem(cfg, false); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// repeatFor calls once until budget has elapsed, at least minRepetitions
// times. A repetition whose digest differs from the first one's is a failed
// operation: the outputs of one config must not depend on when it ran.
func repeatFor(budget time.Duration, once func() repetition) []repetition {
	var reps []repetition
	for start := time.Now(); len(reps) < minRepetitions || time.Since(start) < budget; {
		rep := once()
		if len(reps) > 0 && rep.digest != reps[0].digest {
			fmt.Fprintf(os.Stderr, "benchmark: repetition %d digest %s differs from the first %s\n",
				len(reps), rep.digest, reps[0].digest)
			rep.failed++
		}
		reps = append(reps, rep)
	}
	return reps
}

// report is what one workload run prints.
type report struct {
	skipped   int
	reps      []repetition
	setupS    sample
	simDigest string
	note      string
	correct   bool
	// timings holds every sampled quantity behind a metric, for the
	// min/median/max lines.
	timings map[string]sample
	metrics map[string]float64
}

func (r *report) attempted() (attempted, failed int) {
	for _, rep := range r.reps {
		attempted += rep.attempted
		failed += rep.failed
	}
	return attempted, failed
}

// endToEndMetrics folds the repetitions into the end-to-end set. Every
// timing is the median over the repetitions; percentiles are taken inside a
// repetition first, so one noisy repetition cannot own the tail.
func (r *report) endToEndMetrics() {
	t := map[string]sample{}
	for _, rep := range r.reps {
		t["wall_s"] = append(t["wall_s"], rep.wallS)
		t["events_per_s"] = append(t["events_per_s"], ratio(float64(rep.events), rep.wallS))
		t["alloc_mb"] = append(t["alloc_mb"], rep.allocMB)
		t["serve_p50_ms"] = append(t["serve_p50_ms"], rep.opMs.percentile(50))
		t["serve_p99_ms"] = append(t["serve_p99_ms"], rep.opMs.percentile(99))
		t["serve_ops_per_s"] = append(t["serve_ops_per_s"], ratio(float64(len(rep.opMs)), rep.wallS))
	}
	t["setup_s"] = r.setupS
	r.timings = t
	r.metrics = map[string]float64{}
	for name, s := range t {
		r.metrics[name] = s.median()
	}
	sim := r.reps[0].sim
	r.metrics["sim_qos_ratio"] = sim.qosRatio()
	r.metrics["sim_delay_ms"] = sim.delayMs()
	r.metrics["sim_energy_j_per_qos_pkt"] = sim.energyPerQoSPacket()
	r.metrics["peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads this process's VmHWM; the driver and the all-workloads
// mode give every workload a process of its own, so the peak is per workload.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1000
		}
	}
	return 0
}

// spinNs times a fixed arithmetic loop, the host-noise yardstick printed at
// the start and end of every run: if it moved, so did everything else.
func spinNs() float64 {
	var best time.Duration
	for try := 0; try < 5; try++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		if d := time.Since(start); try == 0 || d < best {
			best = d
		}
	}
	return float64(best) / 2_000_000
}

var spinSink uint64
