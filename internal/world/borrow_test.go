package world

import (
	"strings"
	"testing"
	"time"

	"refer/internal/geo"
	"refer/internal/mobility"
)

// borrowWorld is a line of four nodes where node 0 sees 1 and 2.
func borrowWorld(t *testing.T) *World {
	t.Helper()
	w := testWorld(t, []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 90, Y: 0}, {X: 300, Y: 0}}, 100)
	w.EnableBorrowChecks()
	return w
}

// mustPanicWith runs f and requires a panic whose message contains want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; guard missed the violation")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want message containing %q", r, want)
		}
	}()
	f()
}

// TestBorrowGuardDetectsNeighborMutation pins the enforcement of the nil-dst
// contract: a caller writing into a cache-owned Neighbors slice is caught at
// the entry's next recomputation, naming the corrupted node.
func TestBorrowGuardDetectsNeighborMutation(t *testing.T) {
	w := borrowWorld(t)
	nb := w.Neighbors(nil, 0)
	if len(nb) == 0 {
		t.Fatal("degenerate topology")
	}
	nb[0] = 99 // contract violation
	// Static nodes never expire by clock; adding a node bumps the topology
	// generation and forces the recomputation that runs the guard.
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 400, Y: 0}}, 100, 0)
	mustPanicWith(t, "borrowed Neighbors slice for node 0 was mutated", func() {
		w.Neighbors(nil, 0)
	})
}

// TestBorrowGuardDetectsAliveMutation covers the separately cached alive
// subset, whose extra invalidation trigger is fault injection.
func TestBorrowGuardDetectsAliveMutation(t *testing.T) {
	w := borrowWorld(t)
	alive := w.AliveNeighbors(nil, 0)
	if len(alive) != 2 || &alive[0] != &w.Neighbors(nil, 0)[0] {
		t.Fatalf("alive neighbors = %v, want the all-alive view aliasing Neighbors", alive)
	}
	alive[1] = alive[0] // contract violation, through the aliased view
	w.SetFailed(1, true)
	mustPanicWith(t, "borrowed AliveNeighbors slice for node 0 was mutated", func() {
		w.AliveNeighbors(nil, 0)
	})
}

// TestBorrowGuardAcceptsWellBehavedCallers is the other half of the
// contract: read-only nil-dst borrowing and mutation of a non-nil-dst
// private copy both survive recomputations silently.
func TestBorrowGuardAcceptsWellBehavedCallers(t *testing.T) {
	w := borrowWorld(t)
	if nb := w.Neighbors(nil, 0); len(nb) != 2 {
		t.Fatalf("neighbors = %v", nb)
	}
	own := w.Neighbors(make([]NodeID, 0, 4), 0)
	own[0] = 42 // private copy: mutation is the caller's business
	alive := w.AliveNeighbors(make([]NodeID, 0, 4), 0)
	alive[0] = 42

	w.SetFailed(1, true)
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 400, Y: 0}}, 100, 0)
	if nb := w.Neighbors(nil, 0); len(nb) != 2 {
		t.Fatalf("post-recompute neighbors = %v", nb)
	}
	if alive := w.AliveNeighbors(nil, 0); len(alive) != 1 {
		t.Fatalf("post-fault alive neighbors = %v", alive)
	}
	// A second round of recomputation re-verifies the fresh hand-outs.
	w.SetFailed(1, false)
	if alive := w.AliveNeighbors(nil, 0); len(alive) != 2 {
		t.Fatalf("post-recovery alive neighbors = %v", alive)
	}
}

// TestBorrowGuardAcceptsRebuildUnderAlias is the world's own rewrite: a
// rebuild rewrites nb in place, and with it an alive view that aliases nb.
// The guard must not mistake that for a caller's mutation.
func TestBorrowGuardAcceptsRebuildUnderAlias(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 1})
	for i := 0; i < 6; i++ {
		from := geo.Point{X: float64(i) * 30, Y: 0}
		w.AddNode(Sensor, linear{from: from, to: geo.Point{X: from.X, Y: 200 - float64(i)*40}, dur: time.Second}, 100, 0)
	}
	w.EnableBorrowChecks()
	for step := 1; step <= 5; step++ {
		nb := w.Neighbors(nil, 0)
		if alive := w.AliveNeighbors(nil, 0); len(alive) == 0 || &alive[0] != &nb[0] {
			t.Fatalf("step %d: alive view %v does not alias Neighbors %v", step, alive, nb)
		}
		if _, err := w.Sched.At(time.Duration(step)*200*time.Millisecond, func() {}); err != nil {
			t.Fatal(err)
		}
		w.Sched.Step() // the next query rebuilds node 0 at a later time
	}
	if st := w.Stats(); st.NeighborRebuilds < 5 {
		t.Fatalf("NeighborRebuilds = %d, want one per step", st.NeighborRebuilds)
	}
}
