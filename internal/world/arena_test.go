package world

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"refer/internal/geo"
	"refer/internal/mobility"
)

// TestArenaTakeSizesExactly pins take: every list is empty with capacity
// exactly k, so appending past k moves it instead of writing into the next
// list; a list longer than a chunk gets a chunk of its own size; and after a
// reset the same carving reuses the pooled chunks without allocating.
func TestArenaTakeSizesExactly(t *testing.T) {
	var a idArena
	sizes := []int{0, 1, 7, arenaChunk - 8, 9, arenaChunk + 5, 3}
	var lists [][]NodeID
	carve := func() {
		lists = lists[:0]
		for j, k := range sizes {
			l := a.take(k)
			if len(l) != 0 || cap(l) != k {
				t.Fatalf("take(%d) gave length %d, capacity %d", k, len(l), cap(l))
			}
			for i := range k {
				l = append(l, NodeID(j<<16|i))
			}
			lists = append(lists, l)
		}
	}
	intact := func() {
		t.Helper()
		for j, l := range lists {
			for i, id := range l {
				if id != NodeID(j<<16|i) {
					t.Fatalf("list %d (%d IDs) reads %d at %d after later lists were carved", j, sizes[j], id, i)
				}
			}
		}
	}
	carve()
	intact()
	if n := len(a.chunks); n != 4 || len(a.chunks[2]) != arenaChunk+5 {
		t.Fatalf("%d chunks, the third of %d IDs; want 4, the third of the oversized list's %d", n, len(a.chunks[2]), arenaChunk+5)
	}
	moved := append(lists[2], -1)
	if unsafe.SliceData(moved) == unsafe.SliceData(lists[2]) {
		t.Fatal("appending past a list's k IDs wrote in place")
	}
	intact()
	if avg := testing.AllocsPerRun(10, func() { a.reset(); carve() }); avg != 0 {
		t.Fatalf("carving again after a reset allocated %.1f times, want 0", avg)
	}
	intact()
	a.reset()
	if l := a.take(arenaChunk + 5); len(a.chunks) != 4 || unsafe.SliceData(l) != unsafe.SliceData(a.chunks[0]) {
		t.Fatal("an oversized list first in its epoch did not reuse the pooled oversized chunk")
	}
}

// TestArenaWarmFillsAllocFree pins the arena on a mobile world: once warm,
// filling every node's lists at each new virtual instant, several chunks'
// worth, allocates nothing and grows no chunk.
func TestArenaWarmFillsAllocFree(t *testing.T) {
	w := New(Config{Region: geo.Square(300), Seed: 3})
	const side = 15 // 225 sensors at 20 m pitch: about 70 neighbors each
	for i := 0; i < side*side; i++ {
		from := geo.Point{X: float64(i%side) * 20, Y: float64(i/side) * 20}
		w.AddNode(Sensor, linear{from: from, to: geo.Point{X: from.X + 1, Y: from.Y + 1}, dur: time.Hour}, 100, 0)
	}
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 140, Y: 140}}, 250, 0) // a wide list
	s := gridOf(w)
	fillAll := func() {
		for id := range NodeID(w.Len()) {
			w.Neighbors(nil, id)
		}
	}
	instant := func() {
		if _, err := w.Sched.After(time.Second, fillAll); err != nil {
			t.Fatal(err)
		}
		w.Sched.Step()
	}
	for range 3 {
		instant()
	}
	chunks, rebuilds := len(s.arena.chunks), w.stats.NeighborRebuilds
	if chunks < 2 {
		t.Fatalf("one instant's lists fit %d chunk; the test needs several", chunks)
	}
	const runs = 20
	if avg := testing.AllocsPerRun(runs, instant); avg != 0 {
		t.Fatalf("a warm instant of fills allocated %.1f times, want 0", avg)
	}
	if fills := w.stats.NeighborRebuilds - rebuilds; fills != (runs+1)*uint64(w.Len()) || len(s.arena.chunks) != chunks {
		t.Fatalf("%d fills over %d instants of %d nodes, %d chunks after %d", fills, runs+1, w.Len(), len(s.arena.chunks), chunks)
	}
}

// TestStaticArenaSizedByTopology pins the arena on a static world: each list
// is carved once, at its exact size; AddNode ends the epoch even within one
// instant, and the next query reclaims the arena and carves from its start;
// later instants and a failure carve nothing and keep every lent list.
func TestStaticArenaSizedByTopology(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 1})
	for i := 0; i < 64; i++ {
		w.AddNode(Sensor, mobility.Static{P: geo.Point{X: float64(i%8) * 60, Y: float64(i/8) * 60}}, 100, 0)
	}
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 210, Y: 210}}, 250, 0)
	s := gridOf(w)
	s.arena.poison = true
	queryAll := func() {
		carved := 0
		for id := range NodeID(w.Len()) {
			carved += len(w.Neighbors(nil, id)) + len(s.caches[id].wide)
			w.AliveNeighbors(nil, id)
		}
		if s.arena.used != 1 || arenaChunk-len(s.arena.free) != carved || len(s.caches[64].wide) == 0 {
			t.Fatalf("%d IDs listed, %d carved from %d chunks, actuator wide %v",
				carved, arenaChunk-len(s.arena.free), s.arena.used, s.caches[64].wide)
		}
	}
	queryAll()
	first, epoch := w.Neighbors(nil, 0), s.epochN
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 5, Y: 5}}, 100, 0)
	if nb := w.Neighbors(nil, 0); s.epochN != epoch+1 || unsafe.SliceData(nb) != unsafe.SliceData(first) || !slices.Contains(nb, 65) {
		t.Fatalf("after AddNode: epoch %d → %d, node 0 lists %v at the arena's start: %v",
			epoch, s.epochN, nb, unsafe.SliceData(nb) == unsafe.SliceData(first))
	}
	queryAll()
	free, first := len(s.arena.free), w.Neighbors(nil, 0)
	held := slices.Clone(first)
	w.SetFailed(9, true)
	for range 3 {
		if _, err := w.Sched.After(time.Second, queryAll); err != nil {
			t.Fatal(err)
		}
		w.Sched.Step()
	}
	if len(s.arena.free) != free || !slices.Equal(first, held) {
		t.Fatalf("later instants carved %d more IDs; node 0's lent list %v, was %v", free-len(s.arena.free), first, held)
	}
}

// TestArenaOversizeListsExact pins lists longer than a chunk: on a 65×65
// cluster at 1 m pitch every sensor lists the 4 224 others, more than a
// chunk holds. Carved between short lists from a sparse corner, each is
// exact (the twin's brute-force scan), has capacity equal to its length, and
// is still intact once the others are carved.
func TestArenaOversizeListsExact(t *testing.T) {
	const side = 65
	w := New(Config{Region: geo.Square(400), Seed: 1})
	for i := 0; i < side*side; i++ {
		w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 20 + float64(i%side), Y: 20 + float64(i/side)}}, 100, 0)
	}
	sparse := NodeID(w.Len())
	for i := 0; i < 6; i++ {
		w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 300 + float64(i)*30, Y: 350}}, 100, 0)
	}
	oracle := newTwin(w)
	var lent, want [][]NodeID
	for _, id := range []NodeID{sparse, 0, sparse + 2, side*side/2 + 3, sparse + 5, side*side - 1} {
		nb := w.Neighbors(nil, id)
		lent, want = append(lent, nb), append(want, oracle.neighbors(id, false))
		if cap(nb) != len(nb) {
			t.Fatalf("node %d: %d neighbors in a list of capacity %d", id, len(nb), cap(nb))
		}
	}
	for i := range lent {
		if !slices.Equal(lent[i], want[i]) {
			t.Fatalf("list %d: %d IDs, the scan finds %d", i, len(lent[i]), len(want[i]))
		}
	}
	if len(lent[1]) <= arenaChunk {
		t.Fatalf("the cluster's lists hold %d IDs, not more than a chunk's %d", len(lent[1]), arenaChunk)
	}
}

// lentList is a list FuzzNeighborArena borrowed, with what the brute-force
// scan listed at the instant it was lent.
type lentList struct {
	from  NodeID
	alive bool
	list  []NodeID
	want  []NodeID
}

// FuzzNeighborArena drives a static and a mobile world, with the arena
// poisoned on reset, through random queries, repeated and advancing
// instants, failures and joins. Every list must equal the twin's brute-force
// scan at the instant it was lent, and must still read so for as long as the
// borrowing contract says it is valid: Neighbors until a join, or in the
// mobile world a clock advance; AliveNeighbors also until a failure.
func FuzzNeighborArena(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 7, 2, 0, 0, 3, 1, 9, 2, 5, 0, 3, 4, 0, 0, 12, 3, 6, 1, 12, 2, 1, 0, 3})
	f.Add(int64(2), []byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 0, 4, 4, 0, 0, 5, 2, 200, 1, 1})
	f.Add(int64(3), []byte{3, 2, 1, 2, 1, 3, 2, 9, 1, 2, 3, 2, 1, 2, 4, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			t.Skip()
		}
		for _, mobile := range []bool{false, true} {
			checkArena(t, seed, mobile, ops)
		}
	})
}

// checkArena runs FuzzNeighborArena's ops on one world. Each op is a pair
// (kind, argument): a Neighbors or AliveNeighbors query of node arg, a step
// to an event arg·10 ms later (0: the same instant), a failure toggle of node
// arg, or a join.
func checkArena(t *testing.T, seed int64, mobile bool, ops []byte) {
	region := geo.Square(400)
	rng := rand.New(rand.NewSource(seed))
	draws := mobility.NewDraws()
	w := New(Config{Region: region, Seed: seed})
	gridOf(w).arena.poison = true
	oracle := newTwin(w)
	add := func() {
		kind, reach := Sensor, 100.0
		if rng.Intn(8) == 0 {
			kind, reach = Actuator, 250
		}
		var mob mobility.Model = mobility.Static{P: region.RandomPoint(rng)}
		if mobile {
			mob = mobility.NewWaypoint(region, region.RandomPoint(rng), 5, rng.Int63(), draws)
		}
		w.AddNode(kind, mob, reach, 0)
	}
	for range 24 {
		add()
	}
	var lent []lentList
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%5, int(ops[i+1])
		switch op {
		case 0, 1:
			from, alive := NodeID(arg%w.Len()), op == 1
			l := lentList{from: from, alive: alive, want: oracle.neighbors(from, alive)}
			if alive {
				l.list = w.AliveNeighbors(nil, from)
			} else {
				l.list = w.Neighbors(nil, from)
			}
			lent = append(lent, l)
		case 2:
			if _, err := w.Sched.After(time.Duration(arg)*10*time.Millisecond, func() {}); err != nil {
				t.Fatal(err)
			}
			w.Sched.Step()
			if mobile && arg > 0 {
				lent = lent[:0]
			}
		case 3:
			id := NodeID(arg % w.Len())
			w.SetFailed(id, w.Node(id).Alive())
			lent = slices.DeleteFunc(lent, func(l lentList) bool { return l.alive })
		case 4:
			if w.Len() < 64 {
				add()
				lent = lent[:0]
			}
		}
		for _, l := range lent {
			if !slices.Equal(l.list, l.want) {
				t.Fatalf("mobile %v, op %d at %v: node %d's lent list (alive %v) reads %v, the scan listed %v",
					mobile, i/2, w.Now(), l.from, l.alive, l.list, l.want)
			}
		}
	}
}
