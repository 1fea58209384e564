package manet

import (
	"math/rand"
	"reflect"
	"testing"

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
