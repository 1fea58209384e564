package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/world"
)

// buildLattice builds REFER on the 3×3 actuator lattice (eight cells, nine
// actuators) — the recovery suite's deployment: killed corners have
// surviving peers to promote and neighbor cells to merge into.
func buildLattice(t testing.TB, seed int64) (*world.World, *System) {
	t.Helper()
	w := scenario.Build(scenario.Params{Seed: seed, Sensors: 400, MaxSpeed: 1, ActuatorGrid: 3})
	s := New(w, DefaultConfig())
	if err := s.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w, s
}

// overlayDigest summarizes the recovery-relevant state of every cell into a
// canonical string, so replays can be compared byte-for-byte.
func overlayDigest(s *System) string {
	var b strings.Builder
	for _, c := range s.cells {
		absorber := -1
		if c.absorbedBy != nil {
			absorber = c.absorbedBy.CID
		}
		fmt.Fprintf(&b, "cell %d retired=%t absorber=%d corners=%v overlay=%d members=%d\n",
			c.CID, c.retired, absorber, c.Corners, c.held(), len(c.members))
	}
	if s.dht != nil {
		cids := make([]int, 0, len(s.dht.takenOver))
		for cid := range s.dht.takenOver {
			cids = append(cids, cid)
		}
		sort.Ints(cids)
		for _, cid := range cids {
			fmt.Fprintf(&b, "takeover %d->%d\n", cid, s.dht.takenOver[cid])
		}
	}
	return b.String()
}

// FuzzRecoverySchedule drives arbitrary interleavings of actuator kills,
// revivals, virtual-time advances (which run maintenance rounds) and
// recovery sweeps, asserting the structural invariants after every single
// step. Any sequence that corrupts the overlay, the membership maps or the
// CAN takeover chains — or that fails to terminate — is a bug.
func FuzzRecoverySchedule(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 4, 8, 3, 3, 3})           // pile kills onto one cell, then sweep
	f.Add([]byte{0, 2, 1, 2, 0, 2, 3, 1, 3})  // kill/advance/revive churn
	f.Add([]byte{0, 4, 8, 12, 16, 20, 24, 3}) // near-total actuator loss
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		w, s := buildLattice(t, 5)
		check := func(step int, op string) {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s): %v", step, op, err)
			}
		}
		check(-1, "build")
		for i, b := range ops {
			arg := int(b) / 4
			switch b % 4 {
			case 0: // kill an actuator (idempotent on the dead)
				id := s.actuators[arg%len(s.actuators)]
				w.SetFailed(id, true)
				check(i, fmt.Sprintf("kill %d", id))
			case 1: // revive an actuator
				id := s.actuators[arg%len(s.actuators)]
				w.SetFailed(id, false)
				check(i, fmt.Sprintf("revive %d", id))
			case 2: // advance virtual time (maintenance rounds run)
				w.Sched.RunUntil(w.Now() + 3*time.Second)
				check(i, "advance")
			case 3: // recovery sweep; grace varies with the operand
				grace := time.Duration(arg%3) * 5 * time.Second
				for _, a := range s.RecoverSweep(grace) {
					check(i, fmt.Sprintf("sweep action %s cell %d", a.Kind, a.CID))
				}
				check(i, "sweep")
			}
		}
	})
}

// TestReelectionPermutationInvariant is the determinism property of corner
// re-election: the winner is an order-independent minimum (distance, then
// NodeID), so permuting the candidate discovery order — here the actuator
// roster the sweep scans — must elect the same actuator every time.
func TestReelectionPermutationInvariant(t *testing.T) {
	var base []recovery.Action
	for trial := 0; trial < 8; trial++ {
		w, s := buildLattice(t, 5)
		// Permute the discovery order (trial 0 keeps the build order).
		rng := rand.New(rand.NewSource(int64(trial)))
		if trial > 0 {
			rng.Shuffle(len(s.actuators), func(i, j int) {
				s.actuators[i], s.actuators[j] = s.actuators[j], s.actuators[i]
			})
		}
		// Kill one corner of every cell, then repair them all in one sweep.
		for _, c := range s.cells {
			w.SetFailed(c.Corners[0], true)
		}
		actions := s.RecoverSweep(0)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(actions) == 0 {
			t.Fatalf("trial %d: no repairs", trial)
		}
		if trial == 0 {
			base = actions
			continue
		}
		if !reflect.DeepEqual(actions, base) {
			t.Fatalf("trial %d: actions diverged under permuted discovery:\n got %+v\nwant %+v",
				trial, actions, base)
		}
	}
}

// TestRecoverySimultaneousCornerKills kills two corners of the same cell at
// the same virtual instant: the sweep must repair both slots (or escalate to
// a merge) without ever presenting an inconsistent overlay, and the whole
// episode must replay byte-identically.
func TestRecoverySimultaneousCornerKills(t *testing.T) {
	episode := func() ([]recovery.Action, string) {
		w, s := buildLattice(t, 11)
		c := s.cells[0]
		w.SetFailed(c.Corners[0], true)
		w.SetFailed(c.Corners[1], true)
		actions := s.RecoverSweep(0)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if len(actions) == 0 {
			t.Fatal("double corner kill repaired nothing")
		}
		// Both vacant slots must be addressed: two re-elections for this
		// cell, or a merge retiring it.
		var reelects int
		var merged bool
		for _, a := range actions {
			if a.CID != c.CID {
				continue
			}
			switch a.Kind {
			case recovery.Reelect:
				reelects++
			case recovery.Merge:
				merged = true
			}
		}
		if reelects != 2 && !merged {
			t.Fatalf("cell %d: %d re-elections and no merge after double kill: %+v",
				c.CID, reelects, actions)
		}
		return actions, overlayDigest(s)
	}
	a1, d1 := episode()
	a2, d2 := episode()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("replay diverged:\n got %+v\nwant %+v", a2, a1)
	}
	if d1 != d2 {
		t.Fatalf("overlay digest diverged:\n%s\nvs\n%s", d2, d1)
	}
}

// TestRecoveryKillMergedCellCorner retires a cell through a concentrated
// kill burst, then kills one of the retired cell's remaining historical
// corners: the sweep must skip the retired cell entirely (no repair is ever
// addressed to it again), repair the active cells that actuator cornered,
// and replay byte-identically.
func TestRecoveryKillMergedCellCorner(t *testing.T) {
	episode := func() ([]recovery.Action, string) {
		w, s := buildLattice(t, 11)
		// The concentrated burst of the conformance kill-merge campaign:
		// enough adjacent dead corners that some cell finds no successor.
		for _, i := range []int{1, 2, 4, 5} {
			w.SetFailed(s.actuators[i], true)
		}
		first := s.RecoverSweep(0)
		var retired *Cell
		for _, a := range first {
			if a.Kind == recovery.Merge {
				retired = s.cellByCID[a.CID]
			}
		}
		if retired == nil {
			t.Fatalf("burst produced no merge: %+v", first)
		}
		// Kill a still-alive historical corner of the retired cell.
		victim := world.NoNode
		for _, corner := range retired.Corners {
			if w.Node(corner).Alive() {
				victim = corner
				break
			}
		}
		if victim == world.NoNode {
			t.Skip("no alive historical corner to kill")
		}
		w.SetFailed(victim, true)
		second := s.RecoverSweep(0)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, a := range second {
			if a.CID == retired.CID {
				t.Fatalf("sweep repaired retired cell %d: %+v", retired.CID, a)
			}
		}
		return append(first, second...), overlayDigest(s)
	}
	a1, d1 := episode()
	a2, d2 := episode()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("replay diverged:\n got %+v\nwant %+v", a2, a1)
	}
	if d1 != d2 {
		t.Fatalf("overlay digest diverged:\n%s\nvs\n%s", d2, d1)
	}
}
