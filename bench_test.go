package refer

import (
	"context"
	"testing"
	"time"

	"refer/internal/des"
	"refer/internal/energy"
	"refer/internal/kautz"
	"refer/internal/world"
)

// quickOpts shrinks a figure sweep to one seed and short windows so the
// bench suite regenerates every figure's structure in seconds. Paper-scale
// numbers come from `refer-bench -full` (see EXPERIMENTS.md).
func quickOpts() Options {
	return Options{
		Seeds:    []int64{1},
		Warmup:   100 * time.Second,
		Duration: 150 * time.Second,
		Sensors:  150,
	}
}

// benchFigure regenerates the named figures, which share one grid and so one
// sweep per iteration.
func benchFigure(b *testing.B, ids ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		err := BuildFigures(context.Background(), ids, quickOpts(), func(fig Figure) error {
			if len(fig.Series) == 0 {
				b.Fatal("empty figure")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per paper experiment (Section IV): the figures of a
// grid are different metrics of the same runs ----

// BenchmarkGridMobility regenerates Figures 4 and 5: QoS throughput and
// communication energy vs node mobility for all four systems.
func BenchmarkGridMobility(b *testing.B) { benchFigure(b, "4", "5") }

// BenchmarkGridFaults regenerates Figures 6 and 7: transmission delay and QoS
// throughput vs number of faulty nodes.
func BenchmarkGridFaults(b *testing.B) { benchFigure(b, "6", "7") }

// BenchmarkGridPopulation regenerates Figures 8–11: transmission delay and
// the communication, construction and total energy vs network size.
func BenchmarkGridPopulation(b *testing.B) { benchFigure(b, "8", "9", "10", "11") }

// ---- Ablation benches (design-choice studies from DESIGN.md) ----

// BenchmarkAblationFailover compares REFER with and without the Theorem 3.8
// alternate-path failover under faults.
func BenchmarkAblationFailover(b *testing.B) {
	benchFigure(b, "A1")
}

// BenchmarkAblationMaintenance compares REFER with and without the
// awake/wait/sleep maintenance under mobility.
func BenchmarkAblationMaintenance(b *testing.B) {
	benchFigure(b, "A2")
}

// ---- Single-system end-to-end runs ----

func benchRun(b *testing.B, system string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{
			System:   system,
			Scenario: ScenarioParams{Seed: int64(i + 1), Sensors: 200, MaxSpeed: 3},
			Warmup:   100 * time.Second,
			Duration: 200 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered == 0 {
			b.Fatal("no deliveries")
		}
	}
}

// BenchmarkRunREFER simulates 300 s of the default scenario under REFER.
func BenchmarkRunREFER(b *testing.B) { benchRun(b, SystemREFER) }

// BenchmarkRunDaTree simulates 300 s of the default scenario under DaTree.
func BenchmarkRunDaTree(b *testing.B) { benchRun(b, SystemDaTree) }

// BenchmarkRunDDEAR simulates 300 s of the default scenario under D-DEAR.
func BenchmarkRunDDEAR(b *testing.B) { benchRun(b, SystemDDEAR) }

// BenchmarkRunKautzOverlay simulates 300 s under the Kautz overlay.
func BenchmarkRunKautzOverlay(b *testing.B) { benchRun(b, SystemKautzOverlay) }

// ---- Microbenchmarks of the primitives ----

// BenchmarkKautzRoutesK23 measures the per-forwarding-decision cost of the
// Theorem 3.8 route computation in the paper's cell graph K(2,3).
func BenchmarkKautzRoutesK23(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kautz.Routes(2, "021", "201"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKautzRoutesK44 measures the same on the paper's Figure 2 graph.
func BenchmarkKautzRoutesK44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kautz.Routes(4, "0123", "2301"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutesDirect measures the Theorem 3.8 route-set computation the
// forwarding hot path used before the precomputed table: script building,
// window walks and the length sort, on every call.
func BenchmarkRoutesDirect(b *testing.B) {
	g, err := kautz.New(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	nodes := g.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := nodes[i%len(nodes)]
		v := nodes[(i+5)%len(nodes)]
		if u == v {
			v = nodes[(i+6)%len(nodes)]
		}
		if _, err := kautz.Routes(2, u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutesTable measures the same lookups served by the shared
// precomputed RouteTable (a shared read-only view: no copy, no allocation).
func BenchmarkRoutesTable(b *testing.B) {
	table, err := kautz.TableFor(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := kautz.New(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	nodes := g.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := nodes[i%len(nodes)]
		v := nodes[(i+5)%len(nodes)]
		if u == v {
			v = nodes[(i+6)%len(nodes)]
		}
		if _, ok := table.Routes(u, v); !ok {
			b.Fatalf("table miss for %s -> %s", u, v)
		}
	}
}

// BenchmarkGreedyNext measures one greedy shortest-protocol hop decision.
func BenchmarkGreedyNext(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kautz.GreedyNext("12345", "34501"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphEnumerationK44 measures enumerating K(4,4) (320 nodes).
func BenchmarkGraphEnumerationK44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kautz.New(4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldSend measures one radio transmission through the simulator
// (scheduling, carrier sense, energy accounting).
func BenchmarkWorldSend(b *testing.B) {
	w := BuildWorld(ScenarioParams{Seed: 1, Sensors: 200})
	sensors := SensorIDs(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Send(sensors[i%100], sensors[(i+1)%100], energy.Communication, nil)
		if i%64 == 0 {
			w.Sched.Run()
		}
	}
}

// BenchmarkWorldFlood measures one TTL-4 flood over the default deployment.
func BenchmarkWorldFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := BuildWorld(ScenarioParams{Seed: int64(i), Sensors: 200})
		src := SensorIDs(w)[0]
		b.StartTimer()
		w.Flood(src, 4, energy.Communication, nil, nil)
		w.Sched.Run()
	}
}

// BenchmarkREFERBuild measures the full Kautz graph embedding protocol.
func BenchmarkREFERBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := BuildWorld(ScenarioParams{Seed: int64(i + 1), Sensors: 200})
		b.StartTimer()
		sys := NewREFER(w)
		if err := sys.Build(); err != nil {
			b.Fatal(err)
		}
		sys.StopMaintenance()
		w.Sched.Run()
	}
}

// benchREFERInject measures one end-to-end REFER delivery including all
// simulator work, optionally with a packet-trace recorder attached.
func benchREFERInject(b *testing.B, tracer *TraceRecorder) {
	b.Helper()
	w := BuildWorld(ScenarioParams{Seed: 1, Sensors: 200})
	w.SetTracer(tracer)
	sys := NewREFER(w)
	if err := sys.Build(); err != nil {
		b.Fatal(err)
	}
	sys.StopMaintenance()
	w.Sched.Run()
	srcs := make([]world.NodeID, 0, 4)
	for _, c := range sys.Cells() {
		src, _ := c.Node("021")
		srcs = append(srcs, src)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered := false
		sys.Inject(srcs[i%len(srcs)], func(ok bool) { delivered = ok })
		w.Sched.Run()
		if !delivered {
			b.Fatal("drop")
		}
	}
}

// BenchmarkREFERInject is the forwarding hot path with tracing disabled —
// the guard that the observability layer stays off this path (compare
// against BenchmarkREFERInjectTraced).
func BenchmarkREFERInject(b *testing.B) { benchREFERInject(b, nil) }

// BenchmarkREFERInjectTraced is the same delivery recording every packet's
// full event stream; the delta against BenchmarkREFERInject is the cost of
// opting in at sample rate 1.
func BenchmarkREFERInjectTraced(b *testing.B) { benchREFERInject(b, NewTraceRecorder(1)) }

// ---- Simulation hot-path microbenchmarks (allocation-free by contract) ----

// neighborTicker builds a mobile world and returns a step function that
// advances the virtual clock by one nanosecond (through a pooled DES event)
// and queries the neighbor sets of a rotating node — forcing the epoch
// cache to recompute from the spatial index on every step, exactly like the
// forwarding hot path does between events.
func neighborTicker(tb testing.TB, params ScenarioParams) func() {
	tb.Helper()
	w := BuildWorld(params)
	ids := SensorIDs(w)
	i := 0
	query := func() {
		id := ids[i%len(ids)]
		i++
		w.Neighbors(nil, id)
		w.AliveNeighbors(nil, id)
	}
	tick := func() {
		if _, err := w.Sched.After(time.Nanosecond, query); err != nil {
			tb.Fatal(err)
		}
		w.Sched.Step()
	}
	// Warm every node's cache, the reusable grid, and the event pool to
	// steady state so the measured loop sees no growth allocations.
	for k := 0; k < 4*len(ids); k++ {
		tick()
	}
	return tick
}

// BenchmarkNeighbors measures one clock-advancing neighbor-set query on the
// default mobile deployment — the dominating per-event cost of the radio
// model (carrier sense + broadcast targets).
func BenchmarkNeighbors(b *testing.B) {
	tick := neighborTicker(b, ScenarioParams{Seed: 1, Sensors: 200, MaxSpeed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// TestNeighborsStayAllocFree pins BenchmarkNeighbors' steady state at zero
// allocations per step, so a regression fails tests rather than silently
// shifting the benchmark.
func TestNeighborsStayAllocFree(t *testing.T) {
	tick := neighborTicker(t, ScenarioParams{Seed: 1, Sensors: 200, MaxSpeed: 3})
	if avg := testing.AllocsPerRun(200, tick); avg != 0 {
		t.Fatalf("neighbor query allocated %.1f times per step, want 0", avg)
	}
}

// desChurn exercises one schedule/schedule/fire/fire cycle — the event
// lifecycle of two protocol timers — against a scheduler whose heap slice
// has reached steady state.
func desChurn(tb testing.TB) func() {
	tb.Helper()
	s := &des.Scheduler{}
	fn := func() {}
	churn := func() {
		if _, err := s.After(time.Microsecond, fn); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.After(2*time.Microsecond, fn); err != nil {
			tb.Fatal(err)
		}
		s.Step()
		s.Step()
	}
	for k := 0; k < 64; k++ {
		churn()
	}
	return churn
}

// BenchmarkDESChurn measures the 4-ary value-heap scheduler on the
// schedule-heavy churn pattern protocol timers produce.
func BenchmarkDESChurn(b *testing.B) {
	churn := desChurn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// TestDESChurnStaysAllocFree pins BenchmarkDESChurn's steady state at zero
// allocations per cycle.
func TestDESChurnStaysAllocFree(t *testing.T) {
	churn := desChurn(t)
	if avg := testing.AllocsPerRun(500, churn); avg != 0 {
		t.Fatalf("DES churn allocated %.1f times per cycle, want 0", avg)
	}
}
