package can

import (
	"testing"

	"refer/internal/geo"
)

// grid3x3 builds a 3×3 zone lattice with 4-adjacency, CIDs 0..8 laid out
//
//	6 7 8
//	3 4 5
//	0 1 2
func grid3x3(t *testing.T) *Table {
	t.Helper()
	var zones []Zone
	adj := make(map[int][]int)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			cid := y*3 + x
			zones = append(zones, Zone{CID: cid, Coord: geo.Point{X: float64(x) * 100, Y: float64(y) * 100}})
			if x > 0 {
				adj[cid] = append(adj[cid], cid-1)
				adj[cid-1] = append(adj[cid-1], cid)
			}
			if y > 0 {
				adj[cid] = append(adj[cid], cid-3)
				adj[cid-3] = append(adj[cid-3], cid)
			}
		}
	}
	table, err := New(zones, adj)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty zone set should fail")
	}
	zones := []Zone{{CID: 1}, {CID: 1}}
	if _, err := New(zones, nil); err == nil {
		t.Error("duplicate CID should fail")
	}
	if _, err := New([]Zone{{CID: 1}}, map[int][]int{2: {1}}); err == nil {
		t.Error("adjacency for unknown CID should fail")
	}
	if _, err := New([]Zone{{CID: 1}}, map[int][]int{1: {9}}); err == nil {
		t.Error("adjacency to unknown CID should fail")
	}
}

func TestZoneLookup(t *testing.T) {
	table := grid3x3(t)
	z, ok := table.Zone(4)
	if !ok || z.Coord != (geo.Point{X: 100, Y: 100}) {
		t.Fatalf("Zone(4) = %+v ok=%v", z, ok)
	}
	if _, ok := table.Zone(99); ok {
		t.Fatal("Zone(99) should not exist")
	}
}

func TestNeighbors(t *testing.T) {
	table := grid3x3(t)
	got := table.Neighbors(4)
	want := []int{1, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(4) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(4) = %v, want %v", got, want)
		}
	}
	// Corner zone.
	if got := table.Neighbors(0); len(got) != 2 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

func TestNextHopGreedy(t *testing.T) {
	table := grid3x3(t)
	next, ok := table.NextHop(0, 8)
	if !ok {
		t.Fatal("NextHop(0,8) should make progress")
	}
	if next != 1 && next != 3 {
		t.Fatalf("NextHop(0,8) = %d, want 1 or 3", next)
	}
	if _, ok := table.NextHop(8, 8); ok {
		t.Fatal("NextHop at destination should report no hop")
	}
	if _, ok := table.NextHop(0, 99); ok {
		t.Fatal("NextHop to unknown zone should report no hop")
	}
	if _, ok := table.NextHop(99, 0); ok {
		t.Fatal("NextHop from unknown zone should report no hop")
	}
}

func TestRouteGreedy(t *testing.T) {
	table := grid3x3(t)
	route, greedy := table.Route(0, 8)
	if !greedy {
		t.Fatal("lattice route should be purely greedy")
	}
	if len(route) != 5 || route[0] != 0 || route[len(route)-1] != 8 {
		t.Fatalf("route = %v, want 5 zones from 0 to 8", route)
	}
	// Every consecutive pair must be adjacent.
	for i := 0; i+1 < len(route); i++ {
		adjacent := false
		for _, nb := range table.Neighbors(route[i]) {
			if nb == route[i+1] {
				adjacent = true
			}
		}
		if !adjacent {
			t.Fatalf("route %v has non-adjacent hop %d→%d", route, route[i], route[i+1])
		}
	}
}

func TestRouteSelf(t *testing.T) {
	table := grid3x3(t)
	route, greedy := table.Route(4, 4)
	if !greedy || len(route) != 1 || route[0] != 4 {
		t.Fatalf("Route(4,4) = %v, %v", route, greedy)
	}
}

func TestRouteFallsBackToBFS(t *testing.T) {
	// A concave layout where greedy gets stuck: target is geographically
	// closest to a zone that is not connected toward it.
	zones := []Zone{
		{CID: 0, Coord: geo.Point{X: 0, Y: 0}},
		{CID: 1, Coord: geo.Point{X: 100, Y: 0}},  // geographically nearest to 3
		{CID: 2, Coord: geo.Point{X: 0, Y: 300}},  // detour
		{CID: 3, Coord: geo.Point{X: 120, Y: 10}}, // destination
	}
	adj := map[int][]int{
		0: {1, 2},
		1: {0},
		2: {0, 3},
		3: {2},
	}
	table, err := New(zones, adj)
	if err != nil {
		t.Fatal(err)
	}
	route, greedy := table.Route(1, 3)
	if greedy {
		t.Fatal("greedy should have hit a local minimum")
	}
	want := []int{1, 0, 2, 3}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestRouteDisconnected(t *testing.T) {
	zones := []Zone{{CID: 0}, {CID: 1, Coord: geo.Point{X: 100}}}
	table, err := New(zones, map[int][]int{})
	if err != nil {
		t.Fatal(err)
	}
	if route, _ := table.Route(0, 1); route != nil {
		t.Fatalf("route across disconnected zones = %v, want nil", route)
	}
	if got := table.RouteBFS(0, 1); got != nil {
		t.Fatalf("RouteBFS = %v, want nil", got)
	}
}

func TestRouteBFSSelf(t *testing.T) {
	table := grid3x3(t)
	if got := table.RouteBFS(2, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("RouteBFS(2,2) = %v", got)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	zones := []Zone{{CID: 0}, {CID: 1, Coord: geo.Point{X: 10}}}
	table, err := New(zones, map[int][]int{0: {0, 1}, 1: {0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Neighbors(0) = %v, self-loop not ignored", got)
	}
}
