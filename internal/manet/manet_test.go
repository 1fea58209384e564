package manet

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/mobility"
	"refer/internal/world"
)

// chainWorld builds n nodes in a line, spaced 80 m with 100 m range.
func chainWorld(t *testing.T, n int) *world.World {
	t.Helper()
	w := world.New(world.Config{Region: geo.Square(2000), Seed: 1})
	for i := 0; i < n; i++ {
		w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: float64(i) * 80, Y: 0}}, 100, 0)
	}
	return w
}

func TestDiscoverRouteChain(t *testing.T) {
	w := chainWorld(t, 6)
	var route []world.NodeID
	DiscoverRoute(w, 0, 5, DefaultTTL, energy.Communication, func(p []world.NodeID) { route = p })
	w.Sched.Run()
	if len(route) != 6 {
		t.Fatalf("route = %v, want 6-node chain", route)
	}
	for i, id := range route {
		if id != world.NodeID(i) {
			t.Fatalf("route = %v", route)
		}
	}
}

func TestDiscoverRouteUnreachable(t *testing.T) {
	w := chainWorld(t, 3)
	w.SetFailed(1, true)
	called := false
	var route []world.NodeID
	DiscoverRoute(w, 0, 2, 10, energy.Communication, func(p []world.NodeID) {
		called = true
		route = p
	})
	w.Sched.Run()
	if !called {
		t.Fatal("callback never fired")
	}
	if route != nil {
		t.Fatalf("route = %v, want nil", route)
	}
}

func TestDiscoverRouteTTLTooSmall(t *testing.T) {
	w := chainWorld(t, 6)
	var route []world.NodeID
	called := false
	DiscoverRoute(w, 0, 5, 2, energy.Communication, func(p []world.NodeID) { called, route = true, p })
	w.Sched.Run()
	if !called || route != nil {
		t.Fatalf("called=%v route=%v, want nil route", called, route)
	}
}

func TestDiscoverNearest(t *testing.T) {
	w := chainWorld(t, 6)
	targets := map[world.NodeID]bool{4: true, 5: true}
	var route []world.NodeID
	DiscoverNearest(w, 0, DefaultTTL, energy.Communication, func(id world.NodeID) bool { return targets[id] },
		func(p []world.NodeID) { route = p })
	w.Sched.Run()
	if len(route) == 0 || route[len(route)-1] != 4 {
		t.Fatalf("route = %v, want path ending at nearest target 4", route)
	}
}

// TestDiscoverRouteIsDiscoverNearest pins that route discovery has one
// implementation: on the same seeded world, DiscoverRoute and DiscoverNearest
// accepting only dst select the same path and charge the same Joules.
func TestDiscoverRouteIsDiscoverNearest(t *testing.T) {
	const dst = world.NodeID(59)
	discover := func(run func(w *world.World, onRoute func([]world.NodeID))) ([]world.NodeID, float64) {
		w := world.New(world.Config{Region: geo.Square(500), Seed: 7})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: rng.Float64() * 500, Y: rng.Float64() * 500}}, 100, 0)
		}
		var route []world.NodeID
		run(w, func(p []world.NodeID) { route = p })
		w.Sched.Run()
		return route, w.TotalEnergy(energy.Communication)
	}
	route, joules := discover(func(w *world.World, onRoute func([]world.NodeID)) {
		DiscoverRoute(w, 0, dst, DefaultTTL, energy.Communication, onRoute)
	})
	nearest, nearestJoules := discover(func(w *world.World, onRoute func([]world.NodeID)) {
		DiscoverNearest(w, 0, DefaultTTL, energy.Communication, func(id world.NodeID) bool { return id == dst }, onRoute)
	})
	if len(route) < 2 || route[len(route)-1] != dst {
		t.Fatalf("route = %v, want a path ending at %d", route, dst)
	}
	if !reflect.DeepEqual(route, nearest) {
		t.Fatalf("DiscoverRoute path %v != DiscoverNearest path %v", route, nearest)
	}
	if joules != nearestJoules || joules <= 0 {
		t.Fatalf("DiscoverRoute charged %v J, DiscoverNearest %v J", joules, nearestJoules)
	}
}

func TestDiscoveryEnergyCharged(t *testing.T) {
	w := chainWorld(t, 6)
	DiscoverRoute(w, 0, 5, DefaultTTL, energy.Construction, nil)
	w.Sched.Run()
	if got := w.TotalEnergy(energy.Construction); got <= 0 {
		t.Fatal("flood charged no construction energy")
	}
	if got := w.TotalEnergy(energy.Communication); got != 0 {
		t.Fatalf("flood charged %f to the wrong ledger", got)
	}
}

func TestSendAlongPathDelivers(t *testing.T) {
	w := chainWorld(t, 4)
	path := []world.NodeID{0, 1, 2, 3}
	delivered := false
	SendAlongPathHops(w, path, energy.Communication, nil, func() { delivered = true }, func(int) {
		t.Error("unexpected break")
	})
	w.Sched.Run()
	if !delivered {
		t.Fatal("not delivered")
	}
	// 3 transmissions: Tx on 0,1,2 and Rx on 1,2,3.
	wantEnergy := 3*energy.DefaultTxCost + 3*energy.DefaultRxCost
	if got := w.TotalEnergy(energy.Communication); got != wantEnergy {
		t.Fatalf("energy = %f, want %f", got, wantEnergy)
	}
}

func TestSendAlongPathBreak(t *testing.T) {
	w := chainWorld(t, 4)
	w.SetFailed(2, true)
	brokenAt := -1
	SendAlongPathHops(w, []world.NodeID{0, 1, 2, 3}, energy.Communication, nil,
		func() { t.Error("unexpected delivery") },
		func(i int) { brokenAt = i })
	w.Sched.Run()
	if brokenAt != 1 {
		t.Fatalf("brokenAt = %d, want 1 (node 1 cannot reach failed node 2)", brokenAt)
	}
}

func TestSendAlongPathTrivial(t *testing.T) {
	w := chainWorld(t, 2)
	delivered := false
	SendAlongPathHops(w, []world.NodeID{0}, energy.Communication, nil, func() { delivered = true }, nil)
	if !delivered {
		t.Fatal("single-node path should deliver immediately")
	}
	delivered = false
	SendAlongPathHops(w, nil, energy.Communication, nil, func() { delivered = true }, nil)
	if !delivered {
		t.Fatal("empty path should deliver immediately")
	}
}

func TestPathValid(t *testing.T) {
	w := chainWorld(t, 4)
	path := []world.NodeID{0, 1, 2, 3}
	if !PathValid(w, path) {
		t.Fatal("chain path should be valid")
	}
	w.SetFailed(2, true)
	if PathValid(w, path) {
		t.Fatal("path through failed node should be invalid")
	}
	w.SetFailed(2, false)
	if !PathValid(w, path) {
		t.Fatal("recovered path should be valid")
	}
	// Non-adjacent hop.
	if PathValid(w, []world.NodeID{0, 3}) {
		t.Fatal("0→3 is out of range and must be invalid")
	}
}

func TestDiscoverRouteStopsExpandingAfterFound(t *testing.T) {
	// Once a route is found, the flood should stop spreading: compare the
	// energy of a discovery on a long chain where the target is node 1.
	w := chainWorld(t, 20)
	DiscoverRoute(w, 0, 1, DefaultTTL, energy.Communication, nil)
	w.Sched.Run()
	energyNear := w.TotalEnergy(energy.Communication)

	w2 := chainWorld(t, 20)
	DiscoverRoute(w2, 0, 19, DefaultTTL, energy.Communication, nil)
	w2.Sched.Run()
	energyFar := w2.TotalEnergy(energy.Communication)
	if energyFar <= energyNear {
		t.Fatalf("far discovery (%f J) should cost more than near discovery (%f J)", energyFar, energyNear)
	}
}

func TestDiscoverRouteRingFallsBackToFullTTL(t *testing.T) {
	w := chainWorld(t, 10)
	var route []world.NodeID
	called := false
	// TTL 2 cannot reach node 9; the ring must fall back to the full TTL.
	DiscoverRouteRing(w, 0, 9, []int{2, 24}, energy.Communication, func(p []world.NodeID) {
		called, route = true, p
	})
	w.Sched.Run()
	if !called || len(route) != 10 {
		t.Fatalf("route = %v", route)
	}
	// Both floods were paid.
	if w.TotalEnergy(energy.Communication) <= 0 {
		t.Fatal("no energy charged")
	}
}

func TestDiscoverRouteRingFirstRingSucceeds(t *testing.T) {
	w := chainWorld(t, 5)
	var route []world.NodeID
	DiscoverRouteRing(w, 0, 2, []int{3, 24}, energy.Communication, func(p []world.NodeID) { route = p })
	w.Sched.Run()
	if len(route) != 3 {
		t.Fatalf("route = %v", route)
	}
}

func TestDiscoverRouteRingUnreachable(t *testing.T) {
	w := chainWorld(t, 4)
	w.SetFailed(1, true)
	called := false
	var route []world.NodeID
	DiscoverRouteRing(w, 0, 3, []int{2, 24}, energy.Communication, func(p []world.NodeID) {
		called, route = true, p
	})
	w.Sched.Run()
	if !called || route != nil {
		t.Fatalf("called=%v route=%v", called, route)
	}
}

func TestDiscoverRouteNilCallback(t *testing.T) {
	w := chainWorld(t, 3)
	DiscoverRoute(w, 0, 2, DefaultTTL, energy.Communication, nil) // must not panic
	DiscoverNearest(w, 0, DefaultTTL, energy.Communication, func(world.NodeID) bool { return false }, nil)
	w.Sched.Run()
}

func TestDiscoverRouteToAdjacentNode(t *testing.T) {
	w := chainWorld(t, 3)
	var route []world.NodeID
	DiscoverRoute(w, 0, 1, DefaultTTL, energy.Communication, func(p []world.NodeID) { route = p })
	w.Sched.Run()
	if len(route) != 2 || route[0] != 0 || route[1] != 1 {
		t.Fatalf("route = %v", route)
	}
}

// bfsPathMap is the map-based search bfsPath replaced, kept unchanged as an
// independent oracle: a fresh predecessor map and queue per call.
func bfsPathMap(w *world.World, src world.NodeID, ttl int, accept func(world.NodeID) bool, margin float64) []world.NodeID {
	if !w.Node(src).Alive() {
		return nil
	}
	type entry struct {
		id   world.NodeID
		hops int
	}
	prev := map[world.NodeID]world.NodeID{src: src}
	queue := []entry{{id: src, hops: 0}}
	build := func(at world.NodeID) []world.NodeID {
		var rev []world.NodeID
		for cur := at; ; cur = prev[cur] {
			rev = append(rev, cur)
			if cur == src {
				break
			}
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hops >= ttl {
			continue
		}
		// Borrowed cache slice: nothing in the loop body mutates the world
		// or re-queries cur.id, so the slice stays valid for the iteration.
		for _, nb := range w.AliveNeighbors(nil, cur.id) {
			if _, seen := prev[nb]; seen {
				continue
			}
			if w.Distance(cur.id, nb) > margin*w.LinkRange(cur.id, nb) {
				continue
			}
			prev[nb] = cur.id
			if accept(nb) {
				return build(nb)
			}
			queue = append(queue, entry{id: nb, hops: cur.hops + 1})
		}
	}
	return nil
}

// randomSearchWorld places n nodes, one in eight an actuator, on a 500 m
// square, static or waypoint movers at up to 5 m/s, and fails one in ten.
func randomSearchWorld(seed int64, n int, mobile bool) *world.World {
	region := geo.Square(500)
	w := world.New(world.Config{Region: region, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	draws := mobility.NewDraws()
	for i := 0; i < n; i++ {
		kind, reach := world.Sensor, 100.0
		if rng.Intn(8) == 0 {
			kind, reach = world.Actuator, 250
		}
		p := region.RandomPoint(rng)
		var mob mobility.Model = mobility.Static{P: p}
		if mobile {
			mob = mobility.NewWaypoint(region, p, 5, rng.Int63(), draws)
		}
		w.AddNode(kind, mob, reach, 0)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			w.SetFailed(world.NodeID(i), true)
		}
	}
	return w
}

// checkSearchesMatchOracle runs bfsPath and the map oracle from src over
// every margin, TTL and accept set of the oracle test and requires the same
// path, element for element.
func checkSearchesMatchOracle(t *testing.T, w *world.World, src world.NodeID) {
	t.Helper()
	far := src
	for id := range world.NodeID(w.Len()) {
		if w.Distance(src, id) > w.Distance(src, far) {
			far = id
		}
	}
	accepts := map[string]func(world.NodeID) bool{
		"none":     func(world.NodeID) bool { return false },
		"far":      func(id world.NodeID) bool { return id == far },
		"actuator": func(id world.NodeID) bool { return w.Node(id).Kind == world.Actuator },
	}
	for name, accept := range accepts {
		for _, margin := range []float64{LinkMargin, 1} {
			for _, ttl := range []int{0, 1, 2, DefaultTTL} {
				got := bfsPath(w, src, ttl, accept, margin)
				want := bfsPathMap(w, src, ttl, accept, margin)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) || cap(got) != len(got) {
					t.Fatalf("t=%v src=%d accept=%s margin=%v ttl=%d: bfsPath = %v (cap %d), oracle %v",
						w.Now(), src, name, margin, ttl, got, cap(got), want)
				}
				requireSearchTableZero(t, w, "src=%d accept=%s margin=%v ttl=%d", src, name, margin, ttl)
			}
		}
	}
}

// TestBFSPathMatchesMapOracle pins the table-backed search to the map-based
// one it replaced on random static and mobile worlds with failed nodes and
// actuators, from several sources and at several virtual times.
func TestBFSPathMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, mobile := range []bool{false, true} {
			w := randomSearchWorld(seed, 120, mobile)
			for step := range 3 {
				w.Sched.RunUntil(time.Duration(step) * 7 * time.Second)
				for _, src := range []world.NodeID{0, 17, 63, 119} {
					checkSearchesMatchOracle(t, w, src)
				}
			}
		}
	}
}

// FuzzBFSPath runs the oracle comparison over fuzzed world sizes and TTLs.
func FuzzBFSPath(f *testing.F) {
	f.Add(int64(1), uint8(60), int8(DefaultTTL))
	f.Add(int64(2), uint8(2), int8(1))
	f.Add(int64(3), uint8(200), int8(-1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, ttl int8) {
		w := randomSearchWorld(seed, 1+int(n), seed%2 == 0)
		w.Sched.RunUntil(time.Duration(seed&0xff) * time.Second)
		src := world.NodeID(uint64(seed) % uint64(w.Len()))
		last := world.NodeID(w.Len() - 1)
		for _, accept := range []func(world.NodeID) bool{
			func(id world.NodeID) bool { return id == last },
			func(id world.NodeID) bool { return w.Node(id).Kind == world.Actuator },
		} {
			for _, margin := range []float64{LinkMargin, 1} {
				got := bfsPath(w, src, int(ttl), accept, margin)
				want := bfsPathMap(w, src, int(ttl), accept, margin)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("src=%d margin=%v ttl=%d: bfsPath = %v, oracle %v", src, margin, ttl, got, want)
				}
				requireSearchTableZero(t, w, "src=%d margin=%v ttl=%d", src, margin, ttl)
			}
		}
	})
}

// treeMap is the strong-link BFS DaTree's refineTrees ran per root before
// Tree, kept unchanged as an independent oracle: a membership map, a
// predecessor map and a queue per call. prev maps root to itself.
func treeMap(w *world.World, root world.NodeID, members []world.NodeID) map[world.NodeID]world.NodeID {
	inTree := make(map[world.NodeID]bool, len(members)+1)
	inTree[root] = true
	for _, m := range members {
		inTree[m] = true
	}
	// BFS from the root over margin links restricted to tree members.
	prev := map[world.NodeID]world.NodeID{root: root}
	queue := []world.NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Borrowed cache slice (see world.Neighbors): the body only
		// reads positions and maps, so cur's slice stays valid.
		for _, nb := range w.AliveNeighbors(nil, cur) {
			if !inTree[nb] {
				continue
			}
			if _, seen := prev[nb]; seen {
				continue
			}
			if w.Distance(cur, nb) > LinkMargin*w.LinkRange(cur, nb) {
				continue
			}
			prev[nb] = cur
			queue = append(queue, nb)
		}
	}
	return prev
}

// checkTreeMatchesOracle grows a Tree from root over members and requires
// the oracle's predecessor for every reached node, each reported once, and
// a search table that reads all zero afterwards.
func checkTreeMatchesOracle(t *testing.T, w *world.World, root world.NodeID, members []world.NodeID) {
	t.Helper()
	member := make(map[world.NodeID]bool, len(members))
	for _, m := range members {
		member[m] = true
	}
	got := map[world.NodeID]world.NodeID{root: root}
	Tree(w, root, func(id world.NodeID) bool { return member[id] }, func(at, pred world.NodeID) {
		if _, twice := got[at]; twice {
			t.Errorf("t=%v root=%d: Tree reported %d twice", w.Now(), root, at)
		}
		got[at] = pred
	})
	if want := treeMap(w, root, members); !reflect.DeepEqual(got, want) {
		t.Fatalf("t=%v root=%d members=%v:\nTree   %v\noracle %v", w.Now(), root, members, got, want)
	}
	requireSearchTableZero(t, w, "tree from root=%d", root)
}

// requireSearchTableZero borrows the world's search table and requires every
// entry to read zero: the search the format describes must have left none set.
func requireSearchTableZero(t *testing.T, w *world.World, format string, args ...any) {
	t.Helper()
	via, visit := w.BorrowSearch()
	for id, v := range via {
		if v != 0 {
			t.Fatalf("t=%v: search table entry %d reads %d after the search %s", w.Now(), id, v, fmt.Sprintf(format, args...))
		}
	}
	w.ReturnSearch(visit)
}

// randomMembers draws each node into the set with probability 1/2, and
// sometimes every node.
func randomMembers(rng *rand.Rand, n int) []world.NodeID {
	var members []world.NodeID
	all := rng.Intn(4) == 0
	for id := range world.NodeID(n) {
		if all || rng.Intn(2) == 0 {
			members = append(members, id)
		}
	}
	return members
}

// TestTreeMatchesMapOracle pins Tree to the map-based BFS DaTree used
// before it, on random static and mobile worlds with failed nodes, from
// several roots over random member sets and at several virtual times.
func TestTreeMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, mobile := range []bool{false, true} {
			w := randomSearchWorld(seed, 120, mobile)
			rng := rand.New(rand.NewSource(seed))
			for step := range 3 {
				w.Sched.RunUntil(time.Duration(step) * 7 * time.Second)
				for _, root := range []world.NodeID{0, 17, 63, 119} {
					checkTreeMatchesOracle(t, w, root, randomMembers(rng, w.Len()))
				}
			}
		}
	}
}

// FuzzTree runs the Tree oracle comparison over fuzzed world sizes, roots
// and member sets.
func FuzzTree(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1))
	f.Add(int64(3), uint8(200), uint8(77))
	f.Fuzz(func(t *testing.T, seed int64, n, root uint8) {
		w := randomSearchWorld(seed, 1+int(n), seed%2 == 0)
		w.Sched.RunUntil(time.Duration(seed&0xff) * time.Second)
		rng := rand.New(rand.NewSource(seed))
		checkTreeMatchesOracle(t, w, world.NodeID(int(root)%w.Len()), randomMembers(rng, w.Len()))
	})
}

// TestSearchEntersBeforeAccepting pins the order of search's two
// predicates: a node enter refuses is never accepted, even when accept
// admits it, and the search goes on to the next admitted node beyond.
func TestSearchEntersBeforeAccepting(t *testing.T) {
	w := chainWorld(t, 4)
	w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: 80, Y: 50}}, 100, 0) // 4: beside 1
	via, visit := w.BorrowSearch()
	found, visit := search(w, via, visit, 0, DefaultTTL, 1,
		func(id world.NodeID) bool { return id != 1 },
		func(id world.NodeID) bool { return id == 1 || id == 2 })
	if found != 2 || via[2]-1 != 4 || via[1] != 0 {
		t.Errorf("search found %d (2 via %d, 1 via %d), want 2 reached through 4 and 1 never entered", found, via[2]-1, via[1]-1)
	}
	w.ReturnSearch(visit)
}

// TestBFSPathTableGrowsWithWorld searches once, then adds nodes: the next
// search must see them through a grown table.
func TestBFSPathTableGrowsWithWorld(t *testing.T) {
	w := chainWorld(t, 5)
	checkSearchesMatchOracle(t, w, 0)
	for i := 5; i < 9; i++ {
		w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: float64(i) * 80, Y: 0}}, 100, 0)
	}
	checkSearchesMatchOracle(t, w, 0)
	if got := selectPath(w, 0, DefaultTTL, func(id world.NodeID) bool { return id == 8 }); len(got) != 9 {
		t.Fatalf("path to an added node = %v, want the 9-node chain", got)
	}
}

// TestBFSPathNestedBorrowPanics pins the single-borrow rule: a search
// started while another holds the table is a programming error.
func TestBFSPathNestedBorrowPanics(t *testing.T) {
	w := chainWorld(t, 4)
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		selectPath(w, 0, DefaultTTL, func(world.NodeID) bool {
			selectPath(w, 1, DefaultTTL, func(world.NodeID) bool { return true })
			return false
		})
		return ""
	}()
	if !strings.Contains(msg, "already lent") {
		t.Fatalf("panic = %q, want the nested-borrow panic", msg)
	}
}

// mallocs counts the heap allocations f makes, on one P so no other
// goroutine's allocations land in the delta.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSelectPathAllocatesOnlyThePath pins the search's allocations on a warm
// static world: the returned path and nothing else, whether the strong-link
// search finds it or the any-link fallback does.
func TestSelectPathAllocatesOnlyThePath(t *testing.T) {
	w := chainWorld(t, 20)
	const calls = 50
	for _, c := range []struct {
		name   string
		accept func(world.NodeID) bool
		want   uint64
	}{
		{"found", func(id world.NodeID) bool { return id == 19 }, calls},
		{"none", func(world.NodeID) bool { return false }, 0},
	} {
		selectPath(w, 0, DefaultTTL, c.accept) // warm caches and the table
		n := mallocs(func() {
			for range calls {
				selectPath(w, 0, DefaultTTL, c.accept)
			}
		})
		if n != c.want {
			t.Errorf("%s: %d selectPath calls allocated %d times, want %d", c.name, calls, n, c.want)
		}
	}
}

// TestSendAlongPathAllocsIndependentOfLength pins a source route's
// allocations to a per-route constant: a 20-hop route allocates no more than
// a 3-hop one.
func TestSendAlongPathAllocsIndependentOfLength(t *testing.T) {
	w := chainWorld(t, 21)
	path := make([]world.NodeID, 21)
	for i := range path {
		path[i] = world.NodeID(i)
	}
	delivered := 0
	onDelivered := func() { delivered++ }
	send := func(hops int) uint64 {
		return mallocs(func() {
			for range 20 {
				SendAlongPathHops(w, path[:hops+1], energy.Communication, nil, onDelivered, nil)
				w.Sched.Run()
			}
		})
	}
	send(20) // warm caches and the world's pools
	short, long := send(3), send(20)
	if short != long || delivered != 60 {
		t.Fatalf("20 routes of 3 hops allocated %d times, of 20 hops %d (delivered %d/60)", short, long, delivered)
	}
}
