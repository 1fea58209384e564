package world

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/mobility"
)

// gridWorld is a 5×5 lattice at 60 m pitch with 100 m radios: every node
// has several neighbors and a TTL-3 flood from a corner reaches most of it.
func gridWorld(t *testing.T) *World {
	t.Helper()
	var positions []geo.Point
	for i := 0; i < 25; i++ {
		positions = append(positions, geo.Point{X: float64(i%5) * 60, Y: float64(i/5) * 60})
	}
	return testWorld(t, positions, 100)
}

// TestSendStaysAllocFree pins the radio completion path: once the sendOp and
// DES event pools are warm, a Send with a callback and the event that
// completes it allocate nothing — delivered or failed.
func TestSendStaysAllocFree(t *testing.T) {
	w := gridWorld(t)
	w.SetFailed(2, true)
	outcomes := 0
	onDone := func(Outcome) { outcomes++ }
	round := func() {
		w.Send(0, 1, energy.Communication, onDone)  // delivered
		w.Send(1, 2, energy.Communication, onDone)  // receiver failed
		w.Send(0, 24, energy.Communication, onDone) // out of range
		w.Sched.Run()
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("Send + completion allocated %.1f times per round, want 0", avg)
	}
	if outcomes != 3*102 {
		t.Fatalf("%d completions for %d sends", outcomes, 3*102)
	}
	if len(w.sendFree) != 3 {
		t.Fatalf("sendOp free list holds %d records, want the peak of 3 pending sends", len(w.sendFree))
	}
}

// TestMobileSendScanAllocFree pins the carrier-sense scan at zero
// allocations: on a mobile world every Send is at a new virtual time with no
// cached neighborhood, so each one runs the grid scan, band re-checks and
// waypoint refills included. The warm-up spans a whole staleness epoch, so
// the scan scratch has met the widest slack before the measured sends, which
// stay inside the next epoch. It counts mallocs over the whole loop, not a
// per-call average that would round a rare allocation down to zero.
func TestMobileSendScanAllocFree(t *testing.T) {
	region := geo.Square(300)
	w := New(Config{Region: region, Seed: 4})
	rng := rand.New(rand.NewSource(4))
	draws := mobility.NewDraws()
	for i := 0; i < 60; i++ {
		w.AddNode(Sensor, mobility.NewWaypoint(region, region.RandomPoint(rng), 5, rng.Int63(), draws), 100, 0)
	}
	sends, left := 0, 0
	var send, next func()
	send = func() {
		from := NodeID(sends % w.Len())
		sends++
		w.Send(from, (from+1)%NodeID(w.Len()), energy.Communication, nil)
		if left--; left > 0 {
			next()
		}
	}
	next = func() {
		if _, err := w.Sched.After(time.Millisecond, send); err != nil {
			t.Fatal(err)
		}
	}
	sendEvery := func(n int) {
		left = n
		next()
		w.Sched.Run()
	}
	sendEvery(2500) // 2.5 virtual seconds: one 10 m epoch at 5 m/s and then some
	warm := w.Stats()
	if warm.GridRebuilds != 2 {
		t.Fatalf("warm-up built the grid %d times, want 2", warm.GridRebuilds)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sendEvery(400)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("400 scanned sends allocated %d times, want 0", n)
	}
	got := w.Stats()
	if sends != 2900 || got.NeighborRebuilds != 0 || got.NeighborHits != 0 || got.GridRebuilds != warm.GridRebuilds {
		t.Fatalf("%d sends did not all scan one stale grid: warm %+v, now %+v", sends, warm, got)
	}
}

// TestFloodSteadyStateAllocFree pins the flood path: the second identical
// TTL-3 flood with a visitor reuses the first one's flood state, hop records
// and dedup set, and allocates nothing. The large world scatters its IDs
// over the lattice, so one flood marks words under each of the three
// summary words of its dedup set.
func TestFloodSteadyStateAllocFree(t *testing.T) {
	t.Run("lattice", func(t *testing.T) {
		checkFloodAllocFree(t, gridWorld(t), 0, 10)
	})
	t.Run("10000 nodes", func(t *testing.T) {
		const side = 100
		var positions []geo.Point
		for _, i := range rand.New(rand.NewSource(45)).Perm(side * side) {
			positions = append(positions, geo.Point{X: float64(i%side) * 5, Y: float64(i/side) * 5})
		}
		w := testWorld(t, positions, 12)
		blocks := map[NodeID]bool{} // summary words the flood marks under
		w.Flood(0, 3, energy.Construction, func(at, _ NodeID) bool {
			blocks[at/4096] = true
			return true
		}, nil)
		w.Sched.Run()
		fl := w.floodFree[0]
		if len(fl.seen.summary) != 3 || len(blocks) != 3 {
			t.Fatalf("dedup set of %d nodes has %d summary words, the flood marked under %d, want 3 and 3", w.Len(), len(fl.seen.summary), len(blocks))
		}
		words, summary := &fl.seen.words[0], &fl.seen.summary[0]
		// Hop records rotate through their LIFO pool, so over the first few
		// floods a record can meet more fresh receivers than its list holds.
		// Each list is sized once for them, so here the second flood sizes
		// 12 lists, and the floods AllocsPerRun counts (every other one)
		// size 6, 5, 4, 4, 2, 2, 2, 1, 1 and then none.
		for i := 0; testing.AllocsPerRun(1, func() {
			w.Flood(0, 3, energy.Construction, nil, nil)
			w.Sched.Run()
		}) != 0; i++ {
			if i == 12 {
				t.Fatal("hop receiver lists still grow after 13 pairs of identical floods")
			}
		}
		checkFloodAllocFree(t, w, 0, 60)
		if &fl.seen.words[0] != words || &fl.seen.summary[0] != summary {
			t.Fatal("the dedup set was reallocated after the first flood")
		}
	})
}

// checkFloodAllocFree floods w from origin with TTL 3 and a visitor. The
// flood must reach at least least nodes, the same flood again must allocate
// nothing, and one pooled flood record must be left, its dedup set all zero.
func checkFloodAllocFree(t *testing.T, w *World, origin NodeID, least int) {
	t.Helper()
	visits, quiesced := 0, 0
	visit := func(at, from NodeID) bool {
		if from == at || !w.InRange(from, at) {
			t.Errorf("visit(%d) reports sender %d", at, from)
		}
		visits++
		return true
	}
	onDone := func() { quiesced++ }
	flood := func() {
		w.Flood(origin, 3, energy.Construction, visit, onDone)
		w.Sched.Run()
	}
	flood()
	reached := visits
	if reached < least {
		t.Fatalf("TTL-3 flood reached only %d nodes; the guard needs a real flood", reached)
	}
	if avg := testing.AllocsPerRun(50, flood); avg != 0 {
		t.Fatalf("steady-state flood allocated %.1f times, want 0", avg)
	}
	if visits != 52*reached || quiesced != 52 {
		t.Fatalf("visits %d (want %d), quiesced %d (want 52)", visits, 52*reached, quiesced)
	}
	if len(w.floodFree) != 1 {
		t.Fatalf("flood free list holds %d records after serial floods, want 1", len(w.floodFree))
	}
	requireZeroBitmap(t, &w.floodFree[0].seen, w.Len())
}

// TestFloodSetIsZeroAndBounded pins what a pooled flood keeps: after a
// flood that reached all 999 other nodes, the pooled dedup set is all zero
// and holds one word per 64 nodes plus one summary word, and a small flood
// after it reuses that set without allocating.
func TestFloodSetIsZeroAndBounded(t *testing.T) {
	var positions []geo.Point
	for i := 0; i < 1000; i++ {
		positions = append(positions, geo.Point{X: float64(i%40) * 12, Y: float64(i/40) * 12})
	}
	w := testWorld(t, positions, 30)
	visits := 0
	w.Flood(0, 1000, energy.Construction, func(NodeID, NodeID) bool { visits++; return true }, nil)
	w.Sched.Run()
	if visits != 999 {
		t.Fatalf("flood reached %d of 999 nodes", visits)
	}
	if len(w.floodFree) != 1 {
		t.Fatalf("%d pooled floods, want 1", len(w.floodFree))
	}
	set := &w.floodFree[0].seen
	requireZeroBitmap(t, set, 1000)
	if cap(set.words) != 16 || cap(set.summary) != 1 {
		t.Fatalf("pooled set holds %d words and %d summary words for 1000 nodes, want 16 and 1", cap(set.words), cap(set.summary))
	}
	words := &set.words[0]
	small := func() {
		w.Flood(0, 2, energy.Construction, nil, nil)
		w.Sched.Run()
	}
	if avg := testing.AllocsPerRun(10, small); avg != 0 {
		t.Fatalf("small flood after a large one allocated %.1f times, want 0", avg)
	}
	if len(w.floodFree) != 1 || &w.floodFree[0].seen.words[0] != words {
		t.Fatal("small flood after a large one did not reuse the pooled set")
	}
	requireZeroBitmap(t, set, 1000)
}

// TestFloodAcrossAddNode adds a node while a flood is live: the world's 64
// nodes fill one bitmap word, so the joiner's ID lies past the dedup set the
// flood began with. The flood must still reach the joiner exactly once.
func TestFloodAcrossAddNode(t *testing.T) {
	var positions []geo.Point
	for i := 0; i < 64; i++ {
		positions = append(positions, geo.Point{X: float64(i%8) * 60, Y: float64(i/8) * 60})
	}
	w := testWorld(t, positions, 100)
	joiner := NodeID(-1)
	reached := map[NodeID]int{}
	w.Flood(0, 64, energy.Construction, func(at, _ NodeID) bool {
		if reached[at]++; at == 1 {
			// Between nodes 62 and 63, far from the flood's front.
			joiner = w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 390, Y: 420}}, 100, 0).ID
		}
		return true
	}, nil)
	w.Sched.Run()
	if joiner != 64 {
		t.Fatalf("joiner has ID %d, want 64", joiner)
	}
	if len(reached) != 64 {
		t.Fatalf("flood reached %d of the 64 other nodes", len(reached))
	}
	for id, n := range reached {
		if n != 1 {
			t.Fatalf("flood reached node %d %d times", id, n)
		}
	}
	requireZeroBitmap(t, &w.floodFree[0].seen, w.Len())
}

// TestFloodDropsOutgrownReceiverList pins the same bound on hop records: a
// rebroadcast that reached more than floodKeep new neighbors returns its
// record to the pool without the receiver list, and a small flood after it
// grows a fresh one.
func TestFloodDropsOutgrownReceiverList(t *testing.T) {
	var positions []geo.Point
	for i := 0; i < 300; i++ {
		positions = append(positions, geo.Point{X: float64(i%20) * 2, Y: float64(i/20) * 2})
	}
	w := testWorld(t, positions, 100)
	w.Flood(0, 1, energy.Construction, nil, nil)
	w.Sched.Run()
	if len(w.hopFree) != 1 {
		t.Fatalf("%d pooled hop records after one rebroadcast, want 1", len(w.hopFree))
	}
	if h := w.hopFree[0]; h.to != nil || h.fl != nil || h.next != 0 {
		t.Fatalf("pooled hop kept its %d-receiver list (next %d)", cap(h.to), h.next)
	}
	for i := NodeID(2); i < 300; i++ {
		w.SetFailed(i, true)
	}
	w.Flood(0, 1, energy.Construction, nil, nil)
	w.Sched.Run()
	if h := w.hopFree[0]; h.to == nil || len(h.to) != 0 || cap(h.to) > floodKeep {
		t.Fatalf("small flood after a large one: pooled list len %d cap %d, want empty and kept", len(h.to), cap(h.to))
	}
}

// TestHopListSizedForFreshReceivers pins how a rebroadcast sizes its
// receiver list: for exactly the targets its flood has not reached. Five
// ring nodes 50 m around the origin hear it and each other, and each has one
// outer neighbor of its own, so the origin's hop holds 5 receivers and a
// ring node's 1 of its 6 targets. Ring nodes 1–4 rebroadcast while the
// origin's record is on the queue and take new records; node 5 reuses it.
func TestHopListSizedForFreshReceivers(t *testing.T) {
	positions := []geo.Point{{X: 250, Y: 250}}
	for _, r := range []float64{50, 110} {
		for i := 0; i < 5; i++ {
			a := 2 * math.Pi * float64(i) / 5
			positions = append(positions, geo.Point{X: 250 + r*math.Cos(a), Y: 250 + r*math.Sin(a)})
		}
	}
	w := testWorld(t, positions, 100)
	w.Flood(0, 2, energy.Construction, nil, nil)
	w.Sched.Run()
	var caps []int
	for _, h := range w.hopFree {
		caps = append(caps, cap(h.to))
	}
	slices.Sort(caps)
	if want := []int{1, 1, 1, 1, 5}; !slices.Equal(caps, want) {
		t.Fatalf("pooled hop lists have capacities %v, want %v", caps, want)
	}
}

// TestFloodRebroadcastIsOneQueueEntry pins how a rebroadcast sits on the
// queue: the origin's first-reached neighbors add one entry to Pending, not
// one per neighbor, while Fired still counts one event per reception.
func TestFloodRebroadcastIsOneQueueEntry(t *testing.T) {
	w := gridWorld(t)
	pending, fired := w.Sched.Pending(), w.Sched.Fired()
	var reached []NodeID
	w.Flood(12, 1, energy.Construction, func(at, _ NodeID) bool {
		reached = append(reached, at)
		return true
	}, nil)
	if got := w.Sched.Pending() - pending; got != 1 {
		t.Fatalf("a rebroadcast to 8 neighbors added %d queue entries, want 1", got)
	}
	w.Sched.Run()
	if len(reached) != 8 {
		t.Fatalf("TTL-1 flood from the lattice center reached %v, want its 8 neighbors", reached)
	}
	if got := w.Sched.Fired() - fired; got != uint64(len(reached)) {
		t.Fatalf("Fired advanced by %d over %d receptions", got, len(reached))
	}
}

// senderChain returns a visitor for a flood from origin that requires every
// sender to be the origin or a node the flood reached earlier, so each
// node's senders walk back to the origin one hop at a time. hops records
// every reached node's hop count; the visitor passes each visit on to next,
// which may be nil.
func senderChain(t *testing.T, origin NodeID, hops map[NodeID]int, next FloodVisit) FloodVisit {
	hops[origin] = 0
	return func(at, from NodeID) bool {
		h, ok := hops[from]
		if _, twice := hops[at]; twice || !ok {
			t.Errorf("flood from %d visited %d via sender %d (sender reached: %v, visited before: %v)", origin, at, from, ok, twice)
		}
		hops[at] = h + 1
		if next == nil {
			return true
		}
		return next(at, from)
	}
}

// TestFloodNestedInVisit checks pool hygiene under re-entry: a visitor that
// starts a flood of its own, and an onDone that starts another, must each get
// a flood record distinct from the one still running, and every flood must
// see only its own senders.
func TestFloodNestedInVisit(t *testing.T) {
	w := gridWorld(t)
	innerDone, chained := 0, 0
	outer, inner := map[NodeID]int{}, map[NodeID]int{}
	w.Flood(0, 2, energy.Construction, senderChain(t, 0, outer, func(NodeID, NodeID) bool {
		if len(outer) == 2 {
			w.Flood(24, 2, energy.Construction, senderChain(t, 24, inner, nil), func() { innerDone++ })
		}
		return true
	}), func() {
		w.Flood(12, 1, energy.Construction, senderChain(t, 12, map[NodeID]int{}, func(NodeID, NodeID) bool {
			chained++
			return true
		}), nil)
	})
	w.Sched.Run()
	if len(outer) < 2 || len(inner) < 2 || innerDone != 1 || chained == 0 {
		t.Fatalf("outer %d, inner %d, inner quiesced %d, chained %d", len(outer)-1, len(inner)-1, innerDone, chained)
	}
	if len(w.floodFree) != 2 {
		t.Fatalf("flood free list holds %d records, want 2 (outer and inner overlapped; the chained one reused a slot)", len(w.floodFree))
	}
	for _, fl := range w.floodFree {
		if fl.outstanding != 0 || fl.visit != nil || fl.onDone != nil {
			t.Fatalf("recycled flood still holds state: %+v", fl)
		}
		requireZeroBitmap(t, &fl.seen, w.Len())
	}
}

// TestFloodSendersChainToOrigin floods random mobile worlds with failed
// nodes, each visit of the outer flood starting a short flood of its own,
// and checks every visit's sender through senderChain: each reached node's
// senders walk back to its flood's origin through nodes reached one hop
// earlier, and no flood reaches a node past its TTL.
func TestFloodSendersChainToOrigin(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		region := geo.Square(400)
		w := New(Config{Region: region, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		draws := mobility.NewDraws()
		for range 80 {
			w.AddNode(Sensor, mobility.NewWaypoint(region, region.RandomPoint(rng), 5, rng.Int63(), draws), 100, 0)
		}
		for id := NodeID(1); id < 80; id++ {
			if rng.Intn(10) == 0 {
				w.SetFailed(id, true)
			}
		}
		w.Sched.RunUntil(time.Duration(seed) * 3 * time.Second)
		var floods []map[NodeID]int
		flood := func(origin NodeID, ttl int, next FloodVisit) {
			hops := map[NodeID]int{}
			floods = append(floods, hops)
			w.Flood(origin, ttl, energy.Construction, senderChain(t, origin, hops, next), nil)
		}
		flood(0, 6, func(at, _ NodeID) bool {
			flood(at, 2, nil)
			return true
		})
		w.Sched.Run()
		if len(floods) < 10 {
			t.Fatalf("seed %d: outer flood reached %d nodes; the check needs a real flood", seed, len(floods)-1)
		}
		for i, hops := range floods {
			ttl := 2
			if i == 0 {
				ttl = 6
			}
			for at, h := range hops {
				if h > ttl {
					t.Fatalf("seed %d: flood %d reached %d at hop %d past its TTL %d", seed, i, at, h, ttl)
				}
			}
		}
	}
}
