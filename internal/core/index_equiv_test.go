package core

import (
	"reflect"
	"testing"
	"time"

	"refer/internal/geo"
	"refer/internal/mobility"
	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/world"
)

// Oracle suite for the cell index. The linear scans below are the pre-index
// forms of homeCell, entryPoint and the DHT adjacency, moved here verbatim
// when their production arm (a Config knob and a second System) was removed:
// they share no code with the index, the member→cell map or the homing memo,
// and the one production path is checked against them function by function.

// homeCellScan is homeCell as two passes over s.cells: the first cell whose
// triangle contains p, else the last of the nearest cells within cellMargin.
func (s *System) homeCellScan(p geo.Point) *Cell {
	for _, c := range s.cells {
		if c.contains(p, 0) {
			return s.activeCell(c)
		}
	}
	var owner *Cell
	bestDist := cellMargin
	for _, c := range s.cells {
		if d := c.distance(p); d <= bestDist {
			owner, bestDist = c, d
		}
	}
	return s.activeCell(owner)
}

// entryPointScan is entryPoint with per-candidate linear scans over s.cells
// in place of the member→cell map.
func (s *System) entryPointScan(src world.NodeID) (world.NodeID, *Cell) {
	if c, ok := s.sensorCell[src]; ok {
		if _, isMember := c.kidOfNode[src]; isMember {
			return src, c
		}
	}
	// Actuators are always overlay members of some cell.
	for _, c := range s.cells {
		if _, ok := c.kidOfNode[src]; ok {
			return src, c
		}
	}
	best := world.NoNode
	var bestCell *Cell
	bestDist := 0.0
	p := s.w.Position(src)
	for _, id := range s.w.AliveNeighbors(nil, src) {
		d := p.Dist(s.w.Position(id))
		if best != world.NoNode && (d > bestDist || (d == bestDist && id > best)) {
			continue
		}
		var cell *Cell
		for _, c := range s.cells {
			if _, ok := c.kidOfNode[id]; ok {
				cell = c
				break
			}
		}
		if cell == nil {
			continue
		}
		best, bestCell, bestDist = id, cell, d
	}
	return best, bestCell
}

// cellAdjacencyScan is cellAdjacency as the O(cells²) cellsAdjacent pair loop.
func (s *System) cellAdjacencyScan() map[int][]int {
	adjacency := make(map[int][]int, len(s.cells))
	for i, a := range s.cells {
		for j, b := range s.cells {
			if i == j {
				continue
			}
			if cellsAdjacent(s.w, a, b) {
				adjacency[a.CID] = append(adjacency[a.CID], b.CID)
			}
		}
	}
	return adjacency
}

// cidOf names a cell in a failure message (-1: no cell).
func cidOf(c *Cell) int {
	if c == nil {
		return -1
	}
	return c.CID
}

// requireHomes checks every plain sensor's cell against a scan of its current
// position. The scan knows nothing of the homing memo, so a sensor wrongly
// skipped as unmoved — or a whole round wrongly skipped as static — shows up
// as a stale home.
func requireHomes(t *testing.T, s *System, step string) {
	t.Helper()
	for _, n := range s.w.Nodes() {
		if n.Kind != world.Sensor {
			continue
		}
		cur := s.sensorCell[n.ID]
		if cur != nil {
			if _, overlay := cur.kidOfNode[n.ID]; overlay {
				continue // overlay members keep their cell until replaced
			}
		}
		if want := s.homeCellScan(s.w.Position(n.ID)); cur != want {
			t.Fatalf("%s: sensor %d homed to cell %d, scan says %d", step, n.ID, cidOf(cur), cidOf(want))
		}
	}
}

// requireEntriesAndAdjacency checks entryPoint for every node and the cell
// adjacency against their scans.
func requireEntriesAndAdjacency(t *testing.T, s *System, step string) {
	t.Helper()
	for _, n := range s.w.Nodes() {
		got, gotCell := s.entryPoint(n.ID)
		want, wantCell := s.entryPointScan(n.ID)
		if got != want || gotCell != wantCell {
			t.Fatalf("%s: entryPoint(%d) = node %d in cell %d, scan says node %d in cell %d",
				step, n.ID, got, cidOf(gotCell), want, cidOf(wantCell))
		}
	}
	if got, want := s.cellAdjacency(), s.cellAdjacencyScan(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cell adjacency %v, pair loop says %v", step, got, want)
	}
}

func TestIndexedEquivalenceUnderMobilityAndChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    scenario.Params
	}{
		{"paper-4cell", scenario.Params{Seed: 3, Sensors: 250, MaxSpeed: 2}},
		{"lattice-18cell", scenario.Params{Seed: 5, Sensors: 900, MaxSpeed: 2, ActuatorGrid: 4}},
		{"static", scenario.Params{Seed: 7, Sensors: 250}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := scenario.Build(tc.p)
			cfg := DefaultConfig()
			cfg.DisableMaintenance = true // rounds driven manually below
			s := New(w, cfg)
			if err := s.Build(); err != nil {
				t.Fatalf("Build: %v", err)
			}
			requireHomes(t, s, "build")
			requireEntriesAndAdjacency(t, s, "build")
			scan := s.cellAdjacencyScan()
			for _, c := range s.cells {
				if got, want := s.dht.table.Neighbors(c.CID), scan[c.CID]; !reflect.DeepEqual(got, want) {
					t.Fatalf("CAN table lists %v next to cell %d, pair loop says %v", got, c.CID, want)
				}
			}

			sensors := scenario.SensorIDs(w)
			// round advances the clock, fails a rotating slice of sensors (or
			// recovers the previous one) and runs a maintenance round. Homes
			// are checked between the round's two halves: a replacement demotes
			// an overlay sensor where it stands, to be re-homed a round later.
			round := func(i int) {
				w.Sched.RunUntil(w.Now() + 5*time.Second)
				lo := (i * 13) % len(sensors)
				for j := lo; j < lo+9 && j < len(sensors); j++ {
					w.SetFailed(sensors[j], i%2 == 0)
				}
				s.refreshMembership()
				requireHomes(t, s, "round")
				s.MaintainOnce()
				requireEntriesAndAdjacency(t, s, "round")
			}
			for i := 0; i < 12; i++ {
				round(i)
			}
			if tc.p.MaxSpeed > 0 && s.Stats().Rehomes == 0 {
				t.Fatal("no sensor changed cell in 12 mobile rounds: the homing check was vacuous")
			}

			// A recovery merge: keep killing the first cell's corners — each
			// sweep re-elects survivors into the vacancies — until no successor
			// is left and the cell retires into a neighbor.
			merges := 0
			for try := 0; merges == 0 && try < len(s.actuators); try++ {
				for _, corner := range s.cells[0].Corners {
					w.SetFailed(corner, true)
				}
				for _, a := range s.RecoverSweep(0) {
					if a.Kind == recovery.Merge {
						merges++
					}
				}
				requireEntriesAndAdjacency(t, s, "sweep")
			}
			if merges == 0 {
				t.Fatal("killing the first cell's corners never merged it")
			}
			round(12)
			round(13)
		})
	}
}

// TestStaticSkipWithActuatorLast pins the static-world short-circuit on a
// hand-built world whose highest NodeID is an actuator: after Build every
// sensor is homed, so a membership refresh evaluates no position and no cell
// predicate. (The skip used to compare the memo's length — the largest sensor
// ID + 1 — against the node count, and never fired on such a world.)
func TestStaticSkipWithActuatorLast(t *testing.T) {
	ref := buildWorld(t, 6, 200, 0)
	w := world.New(ref.Config())
	for _, kind := range []world.Kind{world.Sensor, world.Actuator} {
		for _, n := range ref.Nodes() {
			if n.Kind == kind {
				w.AddNode(kind, mobility.Static{P: ref.Position(n.ID)}, n.Range, 0)
			}
		}
	}
	if last := w.Nodes()[w.Len()-1]; last.Kind != world.Actuator {
		t.Fatalf("last node is a %v, want an actuator", last.Kind)
	}
	cfg := DefaultConfig()
	cfg.DisableMaintenance = true
	s := New(w, cfg)
	if err := s.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	evals, checks := w.Stats().MobilityEvals, s.Stats().MaintainChecks
	s.refreshMembership()
	if got := w.Stats().MobilityEvals; got != evals {
		t.Errorf("refreshMembership on a static world made %d mobility evaluations, want 0", got-evals)
	}
	if got := s.Stats().MaintainChecks; got != checks {
		t.Errorf("refreshMembership on a static world made %d cell checks, want 0", got-checks)
	}
}

// TestMaintainOnceAllocationFree pins the steady-state maintenance round on
// a static deployment to zero heap allocations: the sorted-KID cache, the
// pooled candidate buffer, and the static-world membership short-circuit
// together leave nothing to allocate.
func TestMaintainOnceAllocationFree(t *testing.T) {
	w := scenario.Build(scenario.Params{Seed: 1, Sensors: 300})
	cfg := DefaultConfig()
	cfg.DisableMaintenance = true
	s := New(w, cfg)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	// Steady state: per-node neighbor-cache buffers are allocated once per
	// process on first query (the random prober draw touches arbitrary
	// sensors), so warm every node's buffer before measuring.
	for _, n := range w.Nodes() {
		w.AliveNeighbors(nil, n.ID)
	}
	for i := 0; i < 4; i++ {
		s.MaintainOnce() // warm the KID and candidate-pool caches
	}
	if avg := testing.AllocsPerRun(50, s.MaintainOnce); avg != 0 {
		t.Fatalf("MaintainOnce allocates %.1f per round, want 0", avg)
	}
}
