package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"refer"
	"refer/internal/des"
	"refer/internal/energy"
	"refer/internal/kautz"
	"refer/internal/recovery"
	"refer/internal/simd"
	"refer/internal/world"
)

// The -bench mode is the repo's perf trajectory: a fixed micro+macro suite
// whose results are appended to the tree as BENCH_<n>.json files, one per
// measurement session, so optimization work leaves a comparable record
// (schema documented in EXPERIMENTS.md). The suite is deliberately small —
// eight microbenchmarks over the simulation hot paths plus five macros (the
// Figure 4 sweep, the network-growth study, a refer-simd serving-load storm,
// the batched-drain worker-count sweep, and the recovery-campaign sweep) — so
// CI can afford to run it on every change.

// benchSchema names the BENCH file layout; bump on incompatible change.
const benchSchema = "refer-bench/1"

// benchMicro is one testing.Benchmark result.
type benchMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchMacro is one end-to-end sweep result. Extra carries
// macro-specific gauges (e.g. simd_load's cache hit rate).
type benchMacro struct {
	Name         string             `json:"name"`
	WallSeconds  float64            `json:"wall_seconds"`
	Runs         int                `json:"runs"`
	EventsPerSec float64            `json:"events_per_sec"`
	Extra        map[string]float64 `json:"extra,omitempty"`
}

// benchReport is the BENCH_<n>.json document.
type benchReport struct {
	Schema    string `json:"schema"`
	CreatedAt string `json:"created_utc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// Parallelism is the effective sweep concurrency the macros ran at
	// (the -parallel flag, defaulted to GOMAXPROCS).
	Parallelism int                `json:"parallelism"`
	Micro       []benchMicro       `json:"micro"`
	Macro       []benchMacro       `json:"macro"`
	Baseline    map[string]float64 `json:"baseline,omitempty"`
	Notes       string             `json:"notes,omitempty"`
}

func microResult(name string, r testing.BenchmarkResult) benchMicro {
	return benchMicro{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// benchRouteTable measures one precomputed Theorem 3.8 route-set lookup.
func benchRouteTable() (benchMicro, error) {
	table, err := kautz.TableFor(2, 3)
	if err != nil {
		return benchMicro{}, err
	}
	g, err := kautz.New(2, 3)
	if err != nil {
		return benchMicro{}, err
	}
	nodes := g.Nodes()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u := nodes[i%len(nodes)]
			v := nodes[(i+5)%len(nodes)]
			if u == v {
				v = nodes[(i+6)%len(nodes)]
			}
			if _, ok := table.Routes(u, v); !ok {
				b.Fatalf("table miss %s -> %s", u, v)
			}
		}
	})
	return microResult("route_table_lookup", r), nil
}

// benchNeighbors measures one clock-advancing neighbor-set query on the
// default mobile deployment — the per-event cost of the radio model. Each
// step moves the virtual clock one nanosecond through a pooled DES event so
// the epoch cache must recompute from the spatial index, exactly like the
// forwarding hot path between events.
func benchNeighbors() benchMicro {
	w := refer.BuildWorld(refer.ScenarioParams{Seed: 1, Sensors: 200, MaxSpeed: 3})
	ids := refer.SensorIDs(w)
	i := 0
	query := func() {
		id := ids[i%len(ids)]
		i++
		w.Neighbors(nil, id)
		w.AliveNeighbors(nil, id)
	}
	tick := func() {
		if _, err := w.Sched.After(time.Nanosecond, query); err != nil {
			panic(err)
		}
		w.Sched.Step()
	}
	for k := 0; k < 4*len(ids); k++ {
		tick() // reach allocation steady state before measuring
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			tick()
		}
	})
	return microResult("neighbors_query", r)
}

// benchDESChurn measures one schedule/schedule/cancel/fire cycle on the
// pooled 4-ary-heap scheduler — the event lifecycle of a protocol timer.
func benchDESChurn() benchMicro {
	s := &des.Scheduler{}
	fn := func() {}
	churn := func() {
		h, err := s.After(time.Microsecond, fn)
		if err != nil {
			panic(err)
		}
		if _, err := s.After(2*time.Microsecond, fn); err != nil {
			panic(err)
		}
		h.Cancel()
		s.Step()
	}
	for k := 0; k < 64; k++ {
		churn()
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			churn()
		}
	})
	return microResult("des_churn", r)
}

// benchMaintain measures one topology-maintenance round over a 5,000-sensor,
// 98-cell lattice deployment (the scale study's mid-size point), advancing
// the virtual clock one ProbeInterval between rounds so mobility actually
// re-homes sensors. linear=true runs the pre-index scans (DisableCellIndex);
// the two entries' ratio is the cell index's per-round saving.
func benchMaintain(linear bool) (benchMicro, error) {
	w := refer.BuildWorld(refer.ScenarioParams{Seed: 1, Sensors: 5000, MaxSpeed: 1, ActuatorGrid: 8})
	cfg := refer.REFERConfig{DisableMaintenance: true, DisableCellIndex: linear}
	sys := refer.NewREFERWithConfig(w, cfg)
	if err := sys.Build(); err != nil {
		return benchMicro{}, err
	}
	round := func() {
		if _, err := w.Sched.After(5*time.Second, func() {}); err != nil {
			panic(err)
		}
		w.Sched.Step()
		sys.MaintainOnce()
	}
	for k := 0; k < 8; k++ {
		round() // reach steady state before measuring
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			round()
		}
	})
	name := "maintain_once"
	if linear {
		name = "maintain_once_linear"
	}
	return microResult(name, r), nil
}

// benchDrainOnce measures one tagged schedule/fire cycle on the serial
// drain path (drain parallelism 1) — the overhead AtTagged adds to the
// classic event lifecycle when batching is off. Producers tag their radio
// events unconditionally, so this path must stay allocation-free; the suite
// fails rather than record a regression of that contract
// (TestDrainSerialZeroAlloc pins the same property).
func benchDrainOnce() (benchMicro, error) {
	s := &des.Scheduler{}
	s.SetDrainParallelism(1)
	fn := func() {}
	prep := func(int, time.Duration, des.Claims, int32, int32) {}
	claims := des.Claims{1, 2}
	churn := func() {
		at := s.Now() + time.Microsecond
		if _, err := s.AtTagged(at, claims, prep, 7, -1, fn); err != nil {
			panic(err)
		}
		s.RunUntil(at)
	}
	for k := 0; k < 64; k++ {
		churn()
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			churn()
		}
	})
	m := microResult("drain_once", r)
	if m.AllocsPerOp != 0 {
		return benchMicro{}, fmt.Errorf("drain_once: serial drain path allocates (%d allocs/op, %d B/op); the zero-alloc contract is broken", m.AllocsPerOp, m.BytesPerOp)
	}
	return m, nil
}

// benchMeterCharge measures one Tx+Rx charge pair on a battery-constrained
// energy meter priced by the distance-dependent radio model — the per-packet
// cost of the pluggable energy layer, which sits on the radio hot path and
// must stay allocation-free.
func benchMeterCharge() benchMicro {
	m := energy.NewMeter(energy.DefaultRadioModel(), 1e9)
	dists := [...]float64{12, 45, 87, 95, 100}
	i := 0
	charge := func() {
		d := dists[i%len(dists)]
		i++
		m.ChargeTx(energy.Communication, energy.DefaultPacketBits, d)
		m.ChargeRx(energy.Communication, energy.DefaultPacketBits, d)
	}
	for k := 0; k < 64; k++ {
		charge()
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			charge()
		}
	})
	return microResult("meter_charge", r)
}

// benchRecoverOnce measures one detect→re-elect repair cycle on the 3×3
// recovery lattice: kill the current holder of a Kautz corner, run a grace-0
// recovery sweep (which scans every cell, confirms the failure and promotes
// the best surviving actuator), then revive the previous holder so the next
// iteration ping-pongs the corner back. The number is the full cost of one
// self-healing round — the price a deployment pays per permanent actuator
// loss, excluding the detection wait (virtual time is free in the DES).
func benchRecoverOnce() (benchMicro, error) {
	w := refer.BuildWorld(refer.ScenarioParams{Seed: 1, Sensors: 400, MaxSpeed: 1, ActuatorGrid: 3})
	sys := refer.NewREFERWithConfig(w, refer.REFERConfig{DisableMaintenance: true})
	if err := sys.Build(); err != nil {
		return benchMicro{}, err
	}
	// Find a corner actuator: kill candidates in ID order until a sweep
	// repairs something, seeding the ping-pong with the promoted successor.
	victim := world.NoNode
	for _, n := range w.Nodes() {
		if n.Kind != world.Actuator {
			continue
		}
		w.SetFailed(n.ID, true)
		actions := sys.RecoverSweep(0)
		w.SetFailed(n.ID, false)
		if len(actions) > 0 && actions[0].Kind == recovery.Reelect {
			victim = actions[0].NewCorner
			break
		}
	}
	if victim == world.NoNode {
		return benchMicro{}, fmt.Errorf("recover_once: no repairable corner on the lattice")
	}
	cycle := func() {
		w.SetFailed(victim, true)
		actions := sys.RecoverSweep(0)
		w.SetFailed(victim, false)
		next := world.NoNode
		for _, a := range actions {
			if a.Kind == recovery.Reelect {
				next = a.NewCorner
				break
			}
		}
		if next == world.NoNode {
			panic(fmt.Sprintf("recover_once: sweep did not re-elect after killing %d: %+v", victim, actions))
		}
		victim = next
	}
	for k := 0; k < 8; k++ {
		cycle() // reach steady state before measuring
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			cycle()
		}
	})
	return microResult("recover_once", r), nil
}

// benchFig4Quick runs the Figure 4 mobility sweep at quick scale (one seed,
// short windows) and reports its wall time — the suite's end-to-end number.
func benchFig4Quick(parallelism int) (benchMacro, error) {
	fig, err := refer.Fig4(refer.Options{
		Seeds:       []int64{1},
		Warmup:      100 * time.Second,
		Duration:    150 * time.Second,
		Sensors:     150,
		Parallelism: parallelism,
	})
	if err != nil {
		return benchMacro{}, err
	}
	return benchMacro{
		Name:         "fig4_quick",
		WallSeconds:  fig.Stats.WallClock.Seconds(),
		Runs:         fig.Stats.Runs,
		EventsPerSec: fig.Stats.EventsPerSec,
	}, nil
}

// benchScaleQuick runs the network-growth delivery sweep (Figure S1: REFER
// vs its linear-scan ablation at 1,000–10,000 sensors) at quick scale. The
// 10,000-node points are the suite's largest end-to-end runs.
func benchScaleQuick(parallelism int) (benchMacro, error) {
	fig, err := refer.FigS1(refer.Options{
		Seeds:       []int64{1},
		Warmup:      5 * time.Second,
		Duration:    20 * time.Second,
		Parallelism: parallelism,
	})
	if err != nil {
		return benchMacro{}, err
	}
	return benchMacro{
		Name:         "scale_quick",
		WallSeconds:  fig.Stats.WallClock.Seconds(),
		Runs:         fig.Stats.Runs,
		EventsPerSec: fig.Stats.EventsPerSec,
	}, nil
}

// benchSimdLoad boots an in-process refer-simd server and storms it over
// real HTTP: simdSubmissions short-run submissions across simdDistinct
// distinct configs from simdClients concurrent clients. Exactly one
// simulation executes per distinct config; every other submission is served
// by the in-flight dedup or the result cache, so the macro measures the
// serving layer (queueing, canonicalization, caching), not the simulator.
// Extra gauges record the cache behavior alongside the throughput numbers.
func benchSimdLoad(parallelism int) (benchMacro, error) {
	const (
		simdDistinct    = 16
		simdSubmissions = 1200
		simdClients     = 48
	)
	srv := simd.New(simd.Config{Workers: parallelism, QueueDepth: 256})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: simdClients}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	// The same cheap-but-buildable config shape the simd tests use: sparse
	// deployments can fail REFER core embedding, 140 sensors builds for
	// every seed in 1..16.
	body := func(seed int) []byte {
		return []byte(fmt.Sprintf(
			`{"seed":%d,"sensors":140,"warmup_s":1,"duration_s":3,"sources":2,"packets_per_source":2}`,
			seed))
	}

	start := time.Now()
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	sem := make(chan struct{}, simdClients)
	for i := 0; i < simdSubmissions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := client.Post(ts.URL+"/runs", "application/json",
				bytes.NewReader(body(1+i%simdDistinct)))
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("simd_load: submission %d: HTTP %d", i, resp.StatusCode)
				})
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return benchMacro{}, firstErr
	}
	// Drain: dedup guarantees exactly one execution per distinct config.
	for {
		m := srv.MetricsSnapshot()
		if m.Failed > 0 {
			return benchMacro{}, fmt.Errorf("simd_load: %d runs failed", m.Failed)
		}
		if m.Completed == simdDistinct {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	m := srv.MetricsSnapshot()
	eps := 0.0
	if wall > 0 {
		eps = float64(m.DESEvents) / wall
	}
	return benchMacro{
		Name:         "simd_load",
		WallSeconds:  wall,
		Runs:         int(m.Completed),
		EventsPerSec: eps,
		Extra: map[string]float64{
			"submissions":    simdSubmissions,
			"cache_hit_rate": m.CacheHitRate,
			"cache_hits":     float64(m.CacheHits),
			"deduped":        float64(m.Deduped),
			"rejected":       float64(m.Rejected),
		},
	}, nil
}

// benchDrainParallel runs the S5 heavy-traffic frontier point (20,000
// mobile sensors, dense per-second bursts from 64 sources) at DES drain
// worker counts 1, 2, 4 and 8 — the intra-run event batching of
// internal/des/drain.go. Results are byte-identical at every worker count
// (asserted here after stripping host timing, and pinned by
// TestDrainParallelismInvariance); the macro records what the parallel
// prepares buy in whole-run wall time. The batch warms only the
// neighbor-cache share of each event (the serial commit keeps RNG, energy
// and radio mutation), so speedups are bounded well below the worker count
// — see DESIGN.md §13 for the Amdahl accounting — and only materialize on
// multi-core hosts; read them against the report's cpus field.
func benchDrainParallel() (benchMacro, error) {
	base := refer.RunConfig{
		Sources:       64,
		BurstInterval: time.Second,
		Warmup:        5 * time.Second,
		Duration:      20 * time.Second,
		Scenario: refer.ScenarioParams{
			Seed:         1,
			Sensors:      20000,
			MaxSpeed:     5,
			ActuatorGrid: 15,
		},
	}
	// Prime process-level caches (the shared Theorem 3.8 route table) with a
	// short run so the first timed setting is not charged for their build.
	prime := base
	prime.Warmup, prime.Duration = time.Second, 2*time.Second
	if _, err := refer.Run(prime); err != nil {
		return benchMacro{}, err
	}
	start := time.Now()
	extra := map[string]float64{"sensors": float64(base.Scenario.Sensors)}
	wallBy := map[int]float64{}
	var canonical []byte
	var eps float64
	runs := 0
	for _, dp := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.DrainParallelism = dp
		t0 := time.Now()
		res, err := refer.Run(cfg)
		if err != nil {
			return benchMacro{}, err
		}
		wall := time.Since(t0).Seconds()
		wallBy[dp] = wall
		extra[fmt.Sprintf("wall_seconds_drain_%d", dp)] = wall
		runs++
		if dp == 1 {
			eps = res.Stats.EventsPerSec
		}
		res.Stats = res.Stats.StripWallClock()
		data, err := json.Marshal(res)
		if err != nil {
			return benchMacro{}, err
		}
		if canonical == nil {
			canonical = data
		} else if !bytes.Equal(canonical, data) {
			return benchMacro{}, fmt.Errorf("drain_parallel: results at %d drain workers diverge from the serial run; the byte-identity contract is broken", dp)
		}
	}
	for _, dp := range []int{2, 4, 8} {
		if w := wallBy[dp]; w > 0 {
			extra[fmt.Sprintf("speedup_drain_%d", dp)] = wallBy[1] / w
		}
	}
	return benchMacro{
		Name:         "drain_parallel",
		WallSeconds:  time.Since(start).Seconds(),
		Runs:         runs,
		EventsPerSec: eps,
		Extra:        extra,
	}, nil
}

// benchRecoveryCampaign runs the R1 delivery sweep at quick scale: five
// systems across four fault intensities of churn plus permanent actuator
// kills, REFER's runs carrying the full detection/repair loop. The Extra
// gauges record the self-healing work the campaign triggered (all virtual-
// time deterministic), so the trajectory shows repair cost and repair volume
// side by side.
func benchRecoveryCampaign(parallelism int) (benchMacro, error) {
	fig, err := refer.FigR1(refer.Options{
		Seeds:       []int64{1},
		Warmup:      100 * time.Second,
		Duration:    300 * time.Second,
		Parallelism: parallelism,
	})
	if err != nil {
		return benchMacro{}, err
	}
	rec := fig.Stats.Recovery
	return benchMacro{
		Name:         "recovery_campaign",
		WallSeconds:  fig.Stats.WallClock.Seconds(),
		Runs:         fig.Stats.Runs,
		EventsPerSec: fig.Stats.EventsPerSec,
		Extra: map[string]float64{
			"reelections":           float64(rec.Reelections),
			"merges":                float64(rec.Merges),
			"takeovers":             float64(rec.Takeovers),
			"mean_repair_latency_s": rec.MeanLatency().Seconds(),
		},
	}, nil
}

// nextBenchPath returns the first unused BENCH_<n>.json name in dir.
func nextBenchPath(dir string) string {
	for n := 1; ; n++ {
		path := fmt.Sprintf("%s/BENCH_%d.json", dir, n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// runBenchSuite executes the fixed suite and writes the next BENCH_<n>.json
// in the current directory, returning the path written. parallelism bounds
// the macro sweeps' concurrency (<=0 selects GOMAXPROCS) and is recorded in
// the report so trajectory comparisons are like-for-like.
func runBenchSuite(quiet bool, parallelism int) (string, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	report := benchReport{
		Schema:      benchSchema,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Parallelism: parallelism,
	}
	progress := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	progress("bench: route_table_lookup...\n")
	rt, err := benchRouteTable()
	if err != nil {
		return "", err
	}
	report.Micro = append(report.Micro, rt)
	progress("bench: neighbors_query...\n")
	report.Micro = append(report.Micro, benchNeighbors())
	progress("bench: des_churn...\n")
	report.Micro = append(report.Micro, benchDESChurn())
	progress("bench: maintain_once...\n")
	mi, err := benchMaintain(false)
	if err != nil {
		return "", err
	}
	report.Micro = append(report.Micro, mi)
	progress("bench: maintain_once_linear...\n")
	ml, err := benchMaintain(true)
	if err != nil {
		return "", err
	}
	report.Micro = append(report.Micro, ml)
	progress("bench: drain_once...\n")
	do, err := benchDrainOnce()
	if err != nil {
		return "", err
	}
	report.Micro = append(report.Micro, do)
	progress("bench: meter_charge...\n")
	report.Micro = append(report.Micro, benchMeterCharge())
	progress("bench: recover_once...\n")
	ro, err := benchRecoverOnce()
	if err != nil {
		return "", err
	}
	report.Micro = append(report.Micro, ro)
	progress("bench: fig4_quick...\n")
	fig4, err := benchFig4Quick(parallelism)
	if err != nil {
		return "", err
	}
	report.Macro = append(report.Macro, fig4)
	progress("bench: scale_quick...\n")
	sq, err := benchScaleQuick(parallelism)
	if err != nil {
		return "", err
	}
	report.Macro = append(report.Macro, sq)
	progress("bench: simd_load...\n")
	sl, err := benchSimdLoad(parallelism)
	if err != nil {
		return "", err
	}
	report.Macro = append(report.Macro, sl)
	progress("bench: drain_parallel...\n")
	dp, err := benchDrainParallel()
	if err != nil {
		return "", err
	}
	report.Macro = append(report.Macro, dp)
	progress("bench: recovery_campaign...\n")
	rc, err := benchRecoveryCampaign(parallelism)
	if err != nil {
		return "", err
	}
	report.Macro = append(report.Macro, rc)

	path := nextBenchPath(".")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	for _, m := range report.Micro {
		progress("bench: %-20s %12.1f ns/op  %3d allocs/op\n", m.Name, m.NsPerOp, m.AllocsPerOp)
	}
	for _, m := range report.Macro {
		progress("bench: %-20s %11.2f s    %d runs  %.0f events/s\n", m.Name, m.WallSeconds, m.Runs, m.EventsPerSec)
	}
	return path, nil
}
