package world

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/mobility"
)

// testWorld builds a world with nodes at fixed positions.
func testWorld(t *testing.T, positions []geo.Point, sensorRange float64) *World {
	t.Helper()
	w := New(Config{Region: geo.Square(500), Seed: 1})
	for _, p := range positions {
		w.AddNode(Sensor, mobility.Static{P: p}, sensorRange, 0)
	}
	return w
}

func TestKindAndOutcomeStrings(t *testing.T) {
	if Sensor.String() != "sensor" || Actuator.String() != "actuator" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind string wrong")
	}
	for o, want := range map[Outcome]string{
		Delivered:      "delivered",
		OutOfRange:     "out-of-range",
		ReceiverFailed: "receiver-failed",
		SenderFailed:   "sender-failed",
		Outcome(9):     "Outcome(9)",
	} {
		if o.String() != want {
			t.Errorf("Outcome %d = %q, want %q", int(o), o.String(), want)
		}
	}
}

// TestNextIDNeverWraps: the last node a world can hold gets the largest
// NodeID, and one more panics instead of wrapping to a negative ID.
func TestNextIDNeverWraps(t *testing.T) {
	if got := nextID(MaxNodes - 1); got != math.MaxInt32-1 {
		t.Fatalf("nextID(MaxNodes-1) = %d", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "NodeID") {
			t.Fatalf("nextID(MaxNodes) recovered %v, want a panic naming NodeID", r)
		}
	}()
	nextID(MaxNodes)
}

func TestNewAppliesDefaults(t *testing.T) {
	w := New(Config{})
	cfg := w.Config()
	if cfg.HopDelay <= 0 || cfg.AckTimeout <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Region.Width() != 500 {
		t.Fatalf("default region = %+v", cfg.Region)
	}
	if m, ok := cfg.Energy.(energy.PaperModel); !ok || m.TxJ != energy.DefaultTxCost {
		t.Fatalf("default energy = %+v", cfg.Energy)
	}
	if cfg.PacketBits != energy.DefaultPacketBits {
		t.Fatalf("default packet bits = %d", cfg.PacketBits)
	}
}

func TestPositionsAndRange(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 200, Y: 0}}, 100)
	if !w.InRange(0, 1) {
		t.Error("nodes 0,1 at 50 m should be in range 100")
	}
	if w.InRange(0, 2) {
		t.Error("nodes 0,2 at 200 m should be out of range 100")
	}
	if got := w.Distance(0, 2); got != 200 {
		t.Errorf("Distance = %f", got)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestNeighbors(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 90, Y: 0}, {X: 300, Y: 0}}, 100)
	got := w.Neighbors(nil, 0)
	want := map[NodeID]bool{1: true, 2: true}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected neighbor %d", id)
		}
	}
	// Failed nodes still appear in Neighbors but not AliveNeighbors.
	w.SetFailed(1, true)
	if got := w.Neighbors(nil, 0); len(got) != 2 {
		t.Errorf("Neighbors after failure = %v, want both", got)
	}
	alive := w.AliveNeighbors(nil, 0)
	if len(alive) != 1 || alive[0] != 2 {
		t.Errorf("AliveNeighbors = %v, want [2]", alive)
	}
}

func TestSendDelivers(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}, 100)
	var outcome Outcome
	var at time.Duration
	w.Send(0, 1, energy.Communication, func(o Outcome) {
		outcome = o
		at = w.Now()
	})
	w.Sched.Run()
	if outcome != Delivered {
		t.Fatalf("outcome = %v", outcome)
	}
	if at < w.Config().HopDelay {
		t.Fatalf("delivery at %v, want >= hop delay %v", at, w.Config().HopDelay)
	}
	if at > w.Config().HopDelay+w.Config().HopJitter {
		t.Fatalf("delivery at %v, want <= hop+jitter", at)
	}
	// Energy: sender paid Tx, receiver paid Rx, on the right ledger.
	if got := w.Node(0).Meter.SpentOn(energy.Communication); got != energy.DefaultTxCost {
		t.Errorf("sender energy = %f", got)
	}
	if got := w.Node(1).Meter.SpentOn(energy.Communication); got != energy.DefaultRxCost {
		t.Errorf("receiver energy = %f", got)
	}
	if got := w.TotalEnergy(energy.Construction); got != 0 {
		t.Errorf("construction ledger = %f, want 0", got)
	}
}

func TestSendOutOfRange(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 400, Y: 0}}, 100)
	var outcome Outcome
	var at time.Duration
	w.Send(0, 1, energy.Communication, func(o Outcome) { outcome, at = o, w.Now() })
	w.Sched.Run()
	if outcome != OutOfRange {
		t.Fatalf("outcome = %v", outcome)
	}
	if at < w.Config().AckTimeout {
		t.Fatalf("failure detected at %v, want >= ack timeout", at)
	}
	// The wasted attempt still cost Tx energy; no Rx anywhere.
	if got := w.Node(0).Meter.Spent(); got != energy.DefaultTxCost {
		t.Errorf("sender energy = %f", got)
	}
	if got := w.Node(1).Meter.Spent(); got != 0 {
		t.Errorf("receiver energy = %f, want 0", got)
	}
}

func TestSendToFailedNode(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}, 100)
	w.SetFailed(1, true)
	var outcome Outcome
	w.Send(0, 1, energy.Communication, func(o Outcome) { outcome = o })
	w.Sched.Run()
	if outcome != ReceiverFailed {
		t.Fatalf("outcome = %v", outcome)
	}
}

func TestSendFromFailedNode(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}, 100)
	w.SetFailed(0, true)
	var outcome Outcome
	w.Send(0, 1, energy.Communication, func(o Outcome) { outcome = o })
	w.Sched.Run()
	if outcome != SenderFailed {
		t.Fatalf("outcome = %v", outcome)
	}
	if got := w.Node(0).Meter.Spent(); got != 0 {
		t.Errorf("failed sender spent %f", got)
	}
}

func TestSendNilCallback(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}, 100)
	w.Send(0, 1, energy.Communication, nil) // must not panic
	w.Sched.Run()
}

func TestRadioQueueing(t *testing.T) {
	// Two back-to-back sends from the same node must serialize: the second
	// delivery happens at least one hop delay after the first.
	w := New(Config{Region: geo.Square(500), Seed: 1, HopJitter: 0, HopDelay: 4 * time.Millisecond})
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 0, Y: 0}}, 100, 0)
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 50, Y: 0}}, 100, 0)
	var first, second time.Duration
	w.Send(0, 1, energy.Communication, func(Outcome) { first = w.Now() })
	w.Send(0, 1, energy.Communication, func(Outcome) { second = w.Now() })
	w.Sched.Run()
	if first != 4*time.Millisecond {
		t.Fatalf("first delivery at %v", first)
	}
	if second != 8*time.Millisecond {
		t.Fatalf("second delivery at %v, want 8ms (queued)", second)
	}
}

func TestBroadcast(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 90, Y: 0}, {X: 400, Y: 0}}, 100)
	w.SetFailed(2, true)
	n := w.Broadcast(0, energy.Communication)
	w.Sched.Run()
	if n != 1 {
		t.Fatalf("Broadcast reported %d receivers, want 1 (one alive in range)", n)
	}
	var received []NodeID
	for _, node := range w.Nodes() {
		if _, rx := node.Meter.Packets(); rx > 0 {
			received = append(received, node.ID)
		}
	}
	if len(received) != 1 || received[0] != 1 {
		t.Fatalf("received = %v, want [1]", received)
	}
	// One Tx on sender, one Rx on the alive receiver.
	if got := w.Node(0).Meter.Spent(); got != energy.DefaultTxCost {
		t.Errorf("sender spent %f", got)
	}
	if got := w.Node(3).Meter.Spent(); got != 0 {
		t.Errorf("out-of-range node spent %f", got)
	}
}

func TestBroadcastFromFailedNode(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}, 100)
	w.SetFailed(0, true)
	if n := w.Broadcast(0, energy.Communication); n != 0 {
		t.Fatalf("failed node broadcast reached %d", n)
	}
}

func TestFloodReachesConnectedComponent(t *testing.T) {
	// A chain of nodes 80 m apart with 100 m range: flood from one end.
	positions := make([]geo.Point, 6)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i) * 80, Y: 0}
	}
	w := testWorld(t, positions, 100)
	hops := make(map[NodeID]int)
	done := false
	w.Flood(0, 10, energy.Communication, senderChain(t, 0, hops, nil), func() { done = true })
	w.Sched.Run()
	if !done {
		t.Fatal("flood did not quiesce")
	}
	if len(hops) != 6 {
		t.Fatalf("reached %v, want the origin and all 5 other nodes", hops)
	}
	for id, h := range hops {
		if h != int(id) {
			t.Errorf("node %d reached in %d hops, want %d (chain)", id, h, id)
		}
	}
}

func TestFloodTTLBound(t *testing.T) {
	positions := make([]geo.Point, 6)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i) * 80, Y: 0}
	}
	w := testWorld(t, positions, 100)
	visited := make(map[NodeID]bool)
	w.Flood(0, 2, energy.Communication, func(at, _ NodeID) bool {
		visited[at] = true
		return true
	}, nil)
	w.Sched.Run()
	if len(visited) != 2 {
		t.Fatalf("TTL=2 flood visited %v, want nodes 1 and 2", visited)
	}
	if !visited[1] || !visited[2] {
		t.Fatalf("TTL=2 flood visited %v", visited)
	}
}

func TestFloodVisitCanStop(t *testing.T) {
	positions := make([]geo.Point, 6)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i) * 80, Y: 0}
	}
	w := testWorld(t, positions, 10)
	// Wider range world for this test.
	w = testWorld(t, positions, 100)
	visited := make(map[NodeID]bool)
	w.Flood(0, 10, energy.Communication, func(at, _ NodeID) bool {
		visited[at] = true
		return at != 2 // stop the wave at node 2
	}, nil)
	w.Sched.Run()
	if visited[3] || visited[4] || visited[5] {
		t.Fatalf("flood passed a stopping node: %v", visited)
	}
}

func TestFloodSkipsFailedNodes(t *testing.T) {
	positions := make([]geo.Point, 5)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i) * 80, Y: 0}
	}
	w := testWorld(t, positions, 100)
	w.SetFailed(2, true) // break the chain
	visited := make(map[NodeID]bool)
	done := false
	w.Flood(0, 10, energy.Communication, func(at, _ NodeID) bool {
		visited[at] = true
		return true
	}, func() { done = true })
	w.Sched.Run()
	if !done {
		t.Fatal("flood did not quiesce")
	}
	if visited[2] || visited[3] || visited[4] {
		t.Fatalf("flood crossed the failed node: %v", visited)
	}
	if !visited[1] {
		t.Fatal("node 1 not visited")
	}
}

func TestFloodIsolatedOriginQuiesces(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 400, Y: 400}}, 50)
	done := false
	w.Flood(0, 5, energy.Communication, nil, func() { done = true })
	w.Sched.Run()
	if !done {
		t.Fatal("isolated flood never quiesced")
	}
}

func TestFloodEnergyGrowsWithPopulation(t *testing.T) {
	// Flooding a dense network must cost far more than a single unicast —
	// the effect the baselines suffer from.
	build := func(n int) *World {
		positions := make([]geo.Point, n)
		for i := range positions {
			positions[i] = geo.Point{X: float64(i%10) * 40, Y: float64(i/10) * 40}
		}
		return testWorld(t, positions, 100)
	}
	small := build(10)
	small.Flood(0, 20, energy.Communication, nil, nil)
	small.Sched.Run()
	big := build(100)
	big.Flood(0, 20, energy.Communication, nil, nil)
	big.Sched.Run()
	se := small.TotalEnergy(energy.Communication)
	be := big.TotalEnergy(energy.Communication)
	if be <= se*4 {
		t.Fatalf("flood energy: %d nodes %.1f J vs %d nodes %.1f J — should grow superlinearly",
			10, se, 100, be)
	}
}

func TestNearestActuator(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 1})
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 0, Y: 0}}, 100, 0)
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 100, Y: 0}}, 250, 0)
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 300, Y: 0}}, 250, 0)
	if got := w.NearestActuator(0); got != 1 {
		t.Fatalf("NearestActuator = %d, want 1", got)
	}
	w.SetFailed(1, true)
	if got := w.NearestActuator(0); got != 2 {
		t.Fatalf("NearestActuator with failure = %d, want 2", got)
	}
	w.SetFailed(2, true)
	if got := w.NearestActuator(0); got != NoNode {
		t.Fatalf("NearestActuator with all failed = %d, want NoNode", got)
	}
}

func TestMobilityIntegration(t *testing.T) {
	// A mobile node moving away breaks the link over time.
	w := New(Config{Region: geo.Square(500), Seed: 3})
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 0, Y: 0}}, 100, 0)
	// Deterministic "mobility": a one-leg model built by hand.
	w.AddNode(Sensor, linear{from: geo.Point{X: 50, Y: 0}, to: geo.Point{X: 450, Y: 0}, dur: 100 * time.Second}, 100, 0)
	if !w.InRange(0, 1) {
		t.Fatal("initially in range")
	}
	w.Sched.RunUntil(60 * time.Second)
	if w.InRange(0, 1) {
		t.Fatalf("node at %v should be out of range", w.Position(1))
	}
}

// linear is a minimal test mobility model.
type linear struct {
	from, to geo.Point
	dur      time.Duration
}

func (l linear) At(t time.Duration) geo.Point {
	if l.dur == 0 {
		return l.to
	}
	return l.from.Lerp(l.to, float64(t)/float64(l.dur))
}

// Leg is the one moving leg until dur, then a pause at to that never ends.
func (l linear) Leg(t time.Duration) mobility.Leg {
	if t < l.dur {
		return mobility.Leg{Duration: l.dur, From: l.from, To: l.to}
	}
	return mobility.Leg{Start: l.dur, Duration: math.MaxInt64 - l.dur, From: l.to, To: l.to}
}

func (l linear) MaxSpeed() float64 {
	if l.dur == 0 {
		return 0
	}
	return l.from.Dist(l.to) / l.dur.Seconds()
}

// fast is linear with a loose speed bound, a valid one: a bound of a
// kilometer per nanosecond makes every clock advance outdate the grid.
type fast struct{ linear }

func (fast) MaxSpeed() float64 { return 1e12 }

func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, time.Duration) {
		w := New(Config{Region: geo.Square(500), Seed: 42})
		for i := 0; i < 20; i++ {
			w.AddNode(Sensor, mobility.Static{P: geo.Point{X: float64(i) * 20, Y: 0}}, 100, 0)
		}
		var lastDelivery time.Duration
		for i := 0; i < 10; i++ {
			w.Send(0, 1, energy.Communication, func(Outcome) { lastDelivery = w.Now() })
		}
		w.Flood(0, 5, energy.Communication, nil, nil)
		w.Sched.Run()
		return w.TotalEnergy(energy.Communication), lastDelivery
	}
	e1, d1 := run()
	e2, d2 := run()
	if e1 != e2 || d1 != d2 {
		t.Fatalf("replay diverged: (%f,%v) vs (%f,%v)", e1, d1, e2, d2)
	}
}

// TestTallNarrowRegionNeighbors is the regression test for the grid cell
// heuristic: a 100 m × 2000 m region must size its cells from the thin
// axis, and neighbor queries must stay correct along the long one.
func TestTallNarrowRegionNeighbors(t *testing.T) {
	region := geo.Rect{Max: geo.Point{X: 100, Y: 2000}}
	w := New(Config{Region: region, Seed: 5})
	positions := []geo.Point{
		{X: 50, Y: 0}, {X: 50, Y: 90}, {X: 50, Y: 180},
		{X: 10, Y: 1000}, {X: 90, Y: 1040}, {X: 50, Y: 1900},
	}
	for _, p := range positions {
		w.AddNode(Sensor, mobility.Static{P: p}, 100, 0)
	}
	for from := range positions {
		got := w.Neighbors(nil, NodeID(from))
		want := make(map[NodeID]bool)
		for to := range positions {
			if to != from && positions[from].Dist(positions[to]) <= 100 {
				want[NodeID(to)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", from, got, want)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("Neighbors(%d) = %v, want %v", from, got, want)
			}
		}
	}
}

// TestNeighborCacheMatchesUncached is the epoch-cache property test: over a
// mobility run with fault churn, every Neighbors/AliveNeighbors result must
// match — membership AND order — what the brute-force twin (twin_test.go)
// computes for the same world at the event time.
func TestNeighborCacheMatchesUncached(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 21})
	rng := w.Rand()
	draws := mobility.NewDraws()
	const n = 60
	for i := 0; i < n; i++ {
		start := w.Config().Region.RandomPoint(rng)
		w.AddNode(Sensor, mobility.NewWaypoint(w.Config().Region, start, 4.0, rng.Int63(), draws), 100, 0)
	}
	ref := newTwin(w)
	for step := 0; step < 120; step++ {
		at := time.Duration(step) * 777 * time.Millisecond
		if _, err := w.Sched.At(at, func() {
			if step%7 == 3 {
				w.SetFailed(NodeID(step%n), true)
			}
			if step%11 == 6 {
				w.SetFailed(NodeID((step*3)%n), false)
			}
			from := NodeID(step % n)
			wantAll, wantAlive := ref.neighbors(from, false), ref.neighbors(from, true)
			gotAll := w.Neighbors(nil, from)
			gotAlive := w.AliveNeighbors(nil, from)
			if !slices.Equal(gotAll, wantAll) {
				t.Errorf("t=%v Neighbors(%d) = %v, want %v", w.Now(), from, gotAll, wantAll)
			}
			if !slices.Equal(gotAlive, wantAlive) {
				t.Errorf("t=%v AliveNeighbors(%d) = %v, want %v", w.Now(), from, gotAlive, wantAlive)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Sched.Run()
	// The epoch machinery must actually be engaging: far fewer index
	// rebuilds than queries, and some cache hits from the repeated lookups.
	st := w.Stats()
	if st.GridRebuilds == 0 || st.GridRebuilds >= 120 {
		t.Fatalf("GridRebuilds = %d, want quantized (0 < n < 120)", st.GridRebuilds)
	}
}

// TestNeighborQueriesAllocFree pins the zero-allocation contract of the
// steady-state neighbor path: once caches and the reusable grid have
// reached capacity, advancing the clock and re-querying allocates nothing —
// even under the worst-case regime of a speed bound so loose that every
// event rebuilds the whole index. The large case stacks 64 nodes to a spot,
// so every list holds IDs from many bitmap words, and node 4 096 joins next
// to node 0 during the warm-up, growing the ordering bitmap to a second
// summary word that the lists of nodes 0, 9 and 4 032 then read.
func TestNeighborQueriesAllocFree(t *testing.T) {
	t.Run("40 nodes", func(t *testing.T) {
		var all []NodeID
		for id := NodeID(0); id < 40; id++ {
			all = append(all, id)
		}
		checkNeighborQueriesAllocFree(t, 40, false, all)
	})
	t.Run("4097 nodes", func(t *testing.T) {
		checkNeighborQueriesAllocFree(t, 4096, true, []NodeID{0, 9, 63, 64, 2047, 4032, 4095})
	})
}

// checkNeighborQueriesAllocFree places n fast movers on an 8×8 lattice at
// 60 m pitch (node i at spot i mod 64), adds one more halfway through the
// warm-up if join is set, then queries the listed nodes in turn, one per
// event.
func checkNeighborQueriesAllocFree(t *testing.T, n int, join bool, queried []NodeID) {
	w := New(Config{Region: geo.Square(500), Seed: 9})
	add := func() {
		i := len(w.nodes) % 64
		from := geo.Point{X: float64(i%8) * 60, Y: float64(i/8) * 60}
		to := geo.Point{X: from.X + 20, Y: from.Y + 20}
		w.AddNode(Sensor, fast{linear{from: from, to: to, dur: time.Hour}}, 100, 0)
	}
	for i := 0; i < n; i++ {
		add()
	}
	i := 0
	query := func() {
		id := queried[i%len(queried)]
		i++
		w.Neighbors(nil, id)
		w.AliveNeighbors(nil, id)
	}
	tick := func() {
		if _, err := w.Sched.After(time.Nanosecond, query); err != nil {
			t.Fatal(err)
		}
		rebuilds := w.stats.GridRebuilds
		w.Sched.Step()
		if w.stats.GridRebuilds != rebuilds+1 {
			t.Fatalf("t=%v: tick rebuilt the grid %d times, want once", w.Now(), w.stats.GridRebuilds-rebuilds)
		}
	}
	for k := 0; k < 2*len(queried); k++ {
		if join && k == len(queried) {
			add()
			if words := len(w.space.(*gridSpace).order.summary); words != 2 {
				t.Fatalf("node %d joined; the bitmap has %d summary words, want 2", n, words)
			}
		}
		tick() // warm caches, scratch, grid buckets, and the event pool
	}
	if avg := testing.AllocsPerRun(200, tick); avg != 0 {
		t.Fatalf("neighbor query allocated %.1f times per event, want 0", avg)
	}
}

// TestStaticNeighborQueriesDoNoWork is the guard on the world's work
// counters: on a static world, once every node's neighborhood is cached,
// repeated queries at later virtual times are all cache hits — they raise
// NeighborHits and evaluate no mobility model and no grid candidate.
func TestStaticNeighborQueriesDoNoWork(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 9})
	const n = 40
	for i := 0; i < n; i++ {
		w.AddNode(Sensor, mobility.Static{P: geo.Point{X: float64(i%8) * 60, Y: float64(i/8) * 60}}, 100, 0)
	}
	queryAll := func() {
		for id := NodeID(0); id < n; id++ {
			w.Neighbors(nil, id)
			w.AliveNeighbors(nil, id)
		}
	}
	queryAll() // warm-up: one rebuild per node
	warm := w.Stats()
	if warm.NeighborRebuilds != n || warm.MobilityEvals == 0 || warm.NeighborCandidates == 0 {
		t.Fatalf("warm-up did not do the work it should: %+v", warm)
	}
	for k := 0; k < 3; k++ {
		if _, err := w.Sched.After(time.Second, queryAll); err != nil {
			t.Fatal(err)
		}
		w.Sched.Step()
	}
	got := w.Stats()
	if want := warm.NeighborHits + 3*2*n; got.NeighborHits != want {
		t.Errorf("NeighborHits = %d, want %d", got.NeighborHits, want)
	}
	if got.MobilityEvals != warm.MobilityEvals || got.NeighborCandidates != warm.NeighborCandidates ||
		got.NeighborRebuilds != warm.NeighborRebuilds || got.GridRebuilds != warm.GridRebuilds {
		t.Errorf("cached queries on a static world did work:\nwarm %+v\n now %+v", warm, got)
	}
}

// TestAliveNeighborsAliasWhenAllAlive pins the alive view's storage: while
// every neighbor is alive it is the neighbor list itself; a neighbor that is
// down turns it into a private filtered copy, and recovery aliases it again.
func TestAliveNeighborsAliasWhenAllAlive(t *testing.T) {
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 90, Y: 0}, {X: 0, Y: 60}, {X: 300, Y: 0}}, 100)
	same := func(a, b []NodeID) bool { return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] }
	nb := w.Neighbors(nil, 0)
	if len(nb) != 3 {
		t.Fatalf("Neighbors = %v, want three", nb)
	}
	want := append([]NodeID(nil), nb...)
	if alive := w.AliveNeighbors(nil, 0); !same(alive, nb) {
		t.Fatalf("all alive: AliveNeighbors %v does not share Neighbors' array", alive)
	}
	down := nb[1]
	w.SetFailed(down, true)
	alive := w.AliveNeighbors(nil, 0)
	if len(alive) != 2 || &alive[0] == &nb[0] {
		t.Fatalf("one down: AliveNeighbors = %v, want a private copy of two", alive)
	}
	for _, id := range alive {
		if id == down {
			t.Fatalf("AliveNeighbors %v holds failed node %d", alive, down)
		}
	}
	if got := w.Neighbors(nil, 0); !same(got, nb) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Neighbors changed by the filter: %v, want %v", got, want)
	}
	w.SetFailed(down, false)
	if alive := w.AliveNeighbors(nil, 0); !same(alive, nb) {
		t.Fatalf("recovered: AliveNeighbors %v does not share Neighbors' array again", alive)
	}
}

// TestNeighborFillFootprint bounds what a full Neighbors + AliveNeighbors
// fill costs per node on an all-alive world, in bytes per neighbor entry.
// One stored list of 4-byte IDs grown by append costs ≈ 11 B an entry; each
// further stored copy of the neighborhood adds about as much again.
func TestNeighborFillFootprint(t *testing.T) {
	if size := unsafe.Sizeof(NodeID(0)); size != 4 {
		t.Fatalf("NodeID is %d bytes, want 4: every neighbor list and per-node table stores it", size)
	}
	const side = 40 // 1 600 sensors at 25 m pitch: 44 neighbors on average
	w := New(Config{Region: geo.Square(1000), Seed: 1})
	for i := 0; i < side*side; i++ {
		w.AddNode(Sensor, mobility.Static{P: geo.Point{X: float64(i%side) * 25, Y: float64(i/side) * 25}}, 100, 0)
	}
	w.Neighbors(nil, 0) // builds the grid and the query scratch
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	entries := 0
	for id := NodeID(0); id < side*side; id++ {
		entries += len(w.Neighbors(nil, id))
		w.AliveNeighbors(nil, id)
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
	t.Logf("%.1f B allocated per neighbor entry (%.1f neighbors per node)", perEntry, float64(entries)/(side*side))
	if perEntry > 16 {
		t.Fatalf("neighbor fill allocated %.1f B per entry, want ≤ 16", perEntry)
	}
}

// TestGrowPresizesTables pins World.Grow: after Grow(n), n AddNode calls
// move neither the node list nor the spatial layer's per-node tables, and a
// node past the hint still joins and is found by neighbor queries.
func TestGrowPresizesTables(t *testing.T) {
	const n = 1000
	w := New(Config{Region: geo.Square(500), Seed: 1})
	w.Grow(n)
	s := w.space.(*gridSpace)
	if cap(w.nodes) != n || cap(s.kin) != n || cap(s.caches) != n || len(s.order.words) != (n+63)/64 {
		t.Fatalf("Grow(%d): caps nodes %d, kin %d, caches %d, %d bitmap words", n, cap(w.nodes), cap(s.kin), cap(s.caches), len(s.order.words))
	}
	nodes, kin, caches := unsafe.SliceData(w.nodes), unsafe.SliceData(s.kin), unsafe.SliceData(s.caches)
	words, summary := unsafe.SliceData(s.order.words), unsafe.SliceData(s.order.summary)
	add := func(i int) *Node {
		return w.AddNode(Sensor, mobility.Static{P: geo.Point{X: float64(i%40) * 12, Y: float64(i/40) * 12}}, 100, 0)
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	if unsafe.SliceData(w.nodes) != nodes || unsafe.SliceData(s.kin) != kin || unsafe.SliceData(s.caches) != caches ||
		unsafe.SliceData(s.order.words) != words || unsafe.SliceData(s.order.summary) != summary {
		t.Fatalf("%d AddNode calls after Grow(%d) reallocated a per-node table", n, n)
	}
	extra := add(0) // at node 0's spot
	if extra.ID != n || w.Len() != n+1 || len(s.kin) != n+1 || len(s.caches) != n+1 {
		t.Fatalf("node past the hint: ID %d, %d nodes, %d kin rows, %d caches", extra.ID, w.Len(), len(s.kin), len(s.caches))
	}
	if nb := w.Neighbors(nil, extra.ID); !slices.Contains(nb, 0) || !slices.Contains(w.Neighbors(nil, 0), extra.ID) {
		t.Fatalf("node past the hint at node 0's spot: its neighbors %v", nb)
	}
}
