package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"refer"
	"refer/internal/core"
	"refer/internal/des"
	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/metrics"
	"refer/internal/scenario"
	"refer/internal/simd"
	"refer/internal/trace"
	"refer/internal/world"
)

// Layer probes time isolated calls of single public functions. They run on
// a deployment built from the workload's own first REFER config, so neighbor
// density, mobility and cell count are the workload's, not a toy's.

const probeBatches = 5

// probe calibrates a batch of op calls lasting at least d, then reports the
// median ns/op and allocations/op over probeBatches batches.
func probe(d time.Duration, op func()) (ns, allocs float64) {
	batch := func(n int) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed, after.Mallocs - before.Mallocs
	}
	n := 1
	for {
		elapsed, _ := batch(n)
		if elapsed >= d || n >= 1<<30 {
			break
		}
		// Aim 20 % past the target from the rate just seen, at most ×100.
		next := n * 100
		if elapsed > 0 {
			if est := int(1.2 * float64(n) * float64(d) / float64(elapsed)); est < next {
				next = est
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
	var nss, als sample
	for b := 0; b < probeBatches; b++ {
		elapsed, mallocs := batch(n)
		nss = append(nss, float64(elapsed)/float64(n))
		als = append(als, float64(mallocs)/float64(n))
	}
	return nss.median(), als.median()
}

// runProbes fills the (c) metrics. d is the time one probe batch may take.
// hitSeed is a feasible seed of the simd_serve run shape, for the cached
// submission probe.
func runProbes(cfg refer.RunConfig, hitSeed int64, d time.Duration, out map[string]float64) error {
	w, sys, err := buildSystem(cfg, true)
	if err != nil {
		return err
	}
	cs, ok := sys.(*core.System)
	if !ok {
		return fmt.Errorf("probe config must be a REFER system, got %s", cfg.System)
	}
	// Let the construction floods finish: with the maintenance tick off the
	// queue drains, and probes that fire events then own the scheduler.
	w.Sched.Run()
	sensors := scenario.SensorIDs(w)
	next := 0
	nextSensor := func() world.NodeID {
		id := sensors[next%len(sensors)]
		next++
		return id
	}
	// fire runs fn as a DES event dt after now, so the virtual clock moves
	// like it does between the events of a run.
	fire := func(dt time.Duration, fn func()) {
		mustAfter(w, dt, fn)
		w.Sched.Step()
	}

	// Clock-advancing neighbor query: the rebuild path on mobile worlds, the
	// hit path on static ones.
	query := func() {
		id := nextSensor()
		w.Neighbors(nil, id)
		w.AliveNeighbors(nil, id)
	}
	out["world.neighbors_ns"], _ = probe(d, func() { fire(time.Nanosecond, query) })

	out["world.send_ns"], _ = probe(d, func() {
		from := nextSensor()
		if nb := w.Neighbors(nil, from); len(nb) > 0 {
			w.Send(from, nb[0], energy.Communication, func(world.Outcome) {})
		}
		w.Sched.Run()
	})
	out["world.flood_ns"], _ = probe(d, func() {
		w.Flood(nextSensor(), 2, energy.Communication, nil, nil)
		w.Sched.Run()
	})

	at := w.Now()
	out["mobility.at_ns"], _ = probe(d, func() {
		at += time.Millisecond
		positionSink = w.Node(nextSensor()).Mob.At(at)
	})

	grid := geo.NewGrid(w.Config().Region, 50)
	for _, n := range w.Nodes() {
		grid.Insert(int(n.ID), w.Position(n.ID))
	}
	var scratch []int
	out["geo.grid_within_ns"], _ = probe(d, func() {
		id := nextSensor()
		scratch = grid.Within(scratch[:0], grid.Position(int(id)), w.Node(id).Range, int(id))
	})

	graph := cs.Graph()
	nodes := graph.Nodes()
	table, err := kautz.TableFor(graph.Degree(), graph.Diameter())
	if err != nil {
		return err
	}
	pair := 0
	nextPair := func() (kautz.ID, kautz.ID) {
		u := nodes[pair%len(nodes)]
		v := nodes[(pair+5)%len(nodes)]
		pair++
		return u, v
	}
	out["kautz.table_routes_ns"], out["kautz.table_routes_allocs"] = probe(d, func() {
		u, v := nextPair()
		if _, ok := table.Routes(u, v); !ok {
			panic("benchmark: route table miss")
		}
	})
	out["kautz.routes_direct_ns"], _ = probe(d, func() {
		u, v := nextPair()
		if _, err := kautz.Routes(graph.Degree(), u, v); err != nil {
			panic(err)
		}
	})

	var sched des.Scheduler
	nop := func() {}
	out["des.schedule_fire_ns"], _ = probe(d, func() {
		if _, err := sched.After(time.Microsecond, nop); err != nil {
			panic(err)
		}
		sched.Step()
	})
	var tagged des.Scheduler
	tagged.SetDrainParallelism(1)
	prep := func(int, time.Duration, des.Claims, int32, int32) {}
	out["des.tagged_fire_ns"], _ = probe(d, func() {
		at := tagged.Now() + time.Microsecond
		if _, err := tagged.AtTagged(at, des.Claims{1, 2}, prep, 7, -1, nop); err != nil {
			panic(err)
		}
		tagged.RunUntil(at)
	})

	dists := [...]float64{12, 45, 87, 95, 100}
	charge := func(m *energy.Meter) func() {
		i := 0
		return func() {
			dist := dists[i%len(dists)]
			i++
			m.ChargeTx(energy.Communication, energy.DefaultPacketBits, dist)
			m.ChargeRx(energy.Communication, energy.DefaultPacketBits, dist)
		}
	}
	out["energy.charge_paper_ns"], _ = probe(d, charge(energy.NewMeter(energy.DefaultModel(), 0)))
	out["energy.charge_radio_ns"], _ = probe(d, charge(energy.NewMeter(energy.DefaultRadioModel(), 0)))

	// One maintenance round per ProbeInterval of virtual time, so mobility
	// actually re-homes sensors between rounds.
	out["core.maintain_round_ns"], out["core.maintain_round_allocs"] = probe(d, func() {
		fire(core.DefaultConfig().ProbeInterval, cs.MaintainOnce)
		w.Sched.Run() // the round's probe broadcasts
	})
	out["core.recover_sweep_ns"], _ = probe(d, func() { cs.RecoverSweep(5 * time.Second) })

	col := metrics.NewCollector(0, time.Hour, 0)
	out["metrics.collector_ns"], _ = probe(d, func() {
		col.Created(time.Second)
		col.Delivered(time.Second, time.Second+40*time.Millisecond)
	})

	// Sampled like a figure sweep's TraceSample so the event store stays small.
	rec := trace.NewRecorder(64)
	out["trace.record_ns"], _ = probe(d, func() {
		p := rec.PacketInject(time.Second, 1)
		p.Hop(time.Second, 1, 2, 1)
		p.Deliver(time.Second)
	})

	key := cfg
	out["experiment.config_key_ns"], _ = probe(d, func() {
		key.Scenario.Seed++
		if _, err := refer.ConfigKey(key); err != nil {
			panic(err)
		}
	})

	return probeSubmitHit(hitSeed, d, out)
}

var positionSink geo.Point

// probeSubmitHit times POST /runs for an already cached config through
// ServeHTTP on a recorder: decoding, canonicalisation, cache lookup and
// response encoding without a socket.
func probeSubmitHit(seed int64, d time.Duration, out map[string]float64) error {
	srv := simd.New(simd.Config{Workers: 1})
	defer srv.Close()
	body, err := json.Marshal(serveRequest(seed))
	if err != nil {
		return err
	}
	submit := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(body)))
		return rr
	}
	submit()
	for deadline := time.Now().Add(30 * time.Second); srv.MetricsSnapshot().Completed == 0; {
		if srv.MetricsSnapshot().Failed > 0 || time.Now().After(deadline) {
			return fmt.Errorf("simd.submit_hit_ns: warm-up run did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	out["simd.submit_hit_ns"], _ = probe(d, func() {
		if rr := submit(); rr.Code != http.StatusOK {
			panic(fmt.Sprintf("benchmark: cached submit returned HTTP %d", rr.Code))
		}
	})
	return nil
}
