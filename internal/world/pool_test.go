package world

import (
	"testing"

	"refer/internal/energy"
	"refer/internal/geo"
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

// TestFloodSteadyStateAllocFree pins the flood path: the second identical
// TTL-3 flood with a visitor reuses the first one's flood state, hop records,
// parent map and path scratch, and allocates nothing.
func TestFloodSteadyStateAllocFree(t *testing.T) {
	w := gridWorld(t)
	visits, quiesced := 0, 0
	visit := func(at NodeID, hops int, path []NodeID) bool {
		if len(path) != hops+1 || path[0] != 0 || path[hops] != at {
			t.Errorf("visit(%d, %d) got path %v", at, hops, path)
		}
		visits++
		return true
	}
	onDone := func() { quiesced++ }
	flood := func() {
		w.Flood(0, 3, energy.Construction, visit, onDone)
		w.Sched.Run()
	}
	flood()
	reached := visits
	if reached < 10 {
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
}

// TestFloodNestedInVisit checks pool hygiene under re-entry: a visitor that
// starts a flood of its own, and an onDone that starts another, must each get
// a flood record distinct from the one still running, and every flood must
// see only its own reverse paths.
func TestFloodNestedInVisit(t *testing.T) {
	w := gridWorld(t)
	inner, innerDone, chained := 0, 0, 0
	innerVisit := func(at NodeID, hops int, path []NodeID) bool {
		if path[0] != 24 || path[hops] != at {
			t.Errorf("inner flood from 24 visited %d with path %v", at, path)
		}
		inner++
		return true
	}
	outer := 0
	w.Flood(0, 2, energy.Construction, func(at NodeID, hops int, path []NodeID) bool {
		if outer == 0 {
			w.Flood(24, 2, energy.Construction, innerVisit, func() { innerDone++ })
		}
		outer++
		if path[0] != 0 || path[hops] != at {
			t.Errorf("outer flood from 0 visited %d with path %v after nesting", at, path)
		}
		return true
	}, func() {
		w.Flood(12, 1, energy.Construction, func(NodeID, int, []NodeID) bool { chained++; return true }, nil)
	})
	w.Sched.Run()
	if outer == 0 || inner == 0 || innerDone != 1 || chained == 0 {
		t.Fatalf("outer %d, inner %d, inner quiesced %d, chained %d", outer, inner, innerDone, chained)
	}
	if len(w.floodFree) != 2 {
		t.Fatalf("flood free list holds %d records, want 2 (outer and inner overlapped; the chained one reused a slot)", len(w.floodFree))
	}
	for _, fl := range w.floodFree {
		if len(fl.parent) != 0 || fl.outstanding != 0 || fl.visit != nil || fl.onDone != nil {
			t.Fatalf("recycled flood still holds state: %+v", fl)
		}
	}
}

// TestFloodPathIsPoisonedUnderBorrowChecks pins the guard on FloodVisit's
// borrowed path: with borrow checks on, the scratch is overwritten with
// NoNode as soon as the visitor returns, so a retained path cannot pass for
// valid IDs.
func TestFloodPathIsPoisonedUnderBorrowChecks(t *testing.T) {
	w := gridWorld(t)
	w.EnableBorrowChecks()
	var retained [][]NodeID
	w.Flood(0, 2, energy.Construction, func(_ NodeID, _ int, path []NodeID) bool {
		retained = append(retained, path) // the bug: no copy
		return true
	}, nil)
	w.Sched.Run()
	if len(retained) == 0 {
		t.Fatal("flood visited nobody")
	}
	for _, path := range retained {
		for _, id := range path {
			if id != NoNode {
				t.Fatalf("retained path %v still reads as node IDs", path)
			}
		}
	}
}
