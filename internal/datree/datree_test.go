package datree

import (
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

func buildSystem(t *testing.T, seed int64, sensors int, speed float64) (*world.World, *System) {
	t.Helper()
	w := scenario.Build(scenario.Params{Seed: seed, Sensors: sensors, MaxSpeed: speed})
	s := New(w)
	if err := s.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	w.Sched.Run() // drain construction floods
	return w, s
}

func TestBuildFormsForest(t *testing.T) {
	w, s := buildSystem(t, 1, 200, 0)
	joined := 0
	for _, id := range scenario.SensorIDs(w) {
		p, ok := s.Parent(id)
		if !ok {
			continue
		}
		joined++
		root, ok := s.Root(id)
		if !ok {
			t.Fatalf("sensor %d has parent but no root", id)
		}
		if w.Node(root).Kind != world.Actuator {
			t.Fatalf("sensor %d root %d is not an actuator", id, root)
		}
		// Walking up parents must terminate at the root.
		at, hops := id, 0
		for w.Node(at).Kind != world.Actuator {
			next, ok := s.Parent(at)
			if !ok {
				t.Fatalf("broken parent chain at %d (from %d)", at, id)
			}
			at = next
			hops++
			if hops > w.Len() {
				t.Fatalf("parent cycle from sensor %d", id)
			}
		}
		if at != root {
			t.Fatalf("sensor %d chain ends at %d, root says %d", id, at, root)
		}
		_ = p
	}
	if joined < len(scenario.SensorIDs(w))*9/10 {
		t.Fatalf("only %d sensors joined a tree", joined)
	}
}

func TestBuildEnergyOnConstructionLedger(t *testing.T) {
	w, _ := buildSystem(t, 2, 200, 0)
	if w.TotalEnergy(energy.Construction) <= 0 {
		t.Fatal("no construction energy")
	}
	if w.TotalEnergy(energy.Communication) != 0 {
		t.Fatal("communication ledger charged during build")
	}
}

func TestInjectDelivers(t *testing.T) {
	w, s := buildSystem(t, 3, 200, 0)
	delivered, attempts := 0, 0
	for _, id := range scenario.SensorIDs(w)[:50] {
		attempts++
		s.Inject(id, func(ok bool) {
			if ok {
				delivered++
			}
		})
	}
	w.Sched.Run()
	if delivered < attempts*9/10 {
		t.Fatalf("delivered %d/%d on a static fault-free network", delivered, attempts)
	}
}

func TestInjectFromActuator(t *testing.T) {
	w, s := buildSystem(t, 4, 100, 0)
	ok := false
	s.Inject(0, func(o bool) { ok = o }) // node 0 is an actuator
	w.Sched.Run()
	if !ok {
		t.Fatal("actuator self-inject should trivially succeed")
	}
}

func TestRepairOnFailedParent(t *testing.T) {
	w, s := buildSystem(t, 5, 200, 0)
	// Find a sensor whose parent is a sensor; fail the parent.
	var src, parent world.NodeID = world.NoNode, world.NoNode
	for _, id := range scenario.SensorIDs(w) {
		p, ok := s.Parent(id)
		if ok && w.Node(p).Kind == world.Sensor {
			src, parent = id, p
			break
		}
	}
	if src == world.NoNode {
		t.Skip("no two-level chain in this deployment")
	}
	w.SetFailed(parent, true)
	ok := false
	s.Inject(src, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("packet not delivered despite repair")
	}
	if s.Stats().Repairs == 0 || s.Stats().Retransmits == 0 {
		t.Fatalf("stats = %+v, want repairs and retransmits", s.Stats())
	}
	// Repair must cost communication energy (the flood).
	if w.TotalEnergy(energy.Communication) <= 0 {
		t.Fatal("repair flood not charged")
	}
}

func TestRepairCostExceedsNormalDelivery(t *testing.T) {
	// The defining weakness: a delivery that triggers repair costs far more
	// than a clean delivery.
	w1, s1 := buildSystem(t, 6, 200, 0)
	var src world.NodeID = world.NoNode
	var parent world.NodeID
	for _, id := range scenario.SensorIDs(w1) {
		if p, ok := s1.Parent(id); ok && w1.Node(p).Kind == world.Sensor {
			src, parent = id, p
			break
		}
	}
	if src == world.NoNode {
		t.Skip("no two-level chain")
	}
	s1.Inject(src, nil)
	w1.Sched.Run()
	clean := w1.TotalEnergy(energy.Communication)

	w2, s2 := buildSystem(t, 6, 200, 0)
	w2.SetFailed(parent, true)
	s2.Inject(src, nil)
	w2.Sched.Run()
	withRepair := w2.TotalEnergy(energy.Communication)
	if withRepair < clean*3 {
		t.Fatalf("repair delivery cost %.1f J vs clean %.1f J — expected ≫", withRepair, clean)
	}
}

func TestInjectFromFailedSource(t *testing.T) {
	w, s := buildSystem(t, 7, 100, 0)
	src := scenario.SensorIDs(w)[0]
	w.SetFailed(src, true)
	w.SetTracer(trace.NewRecorder(1 << 30))
	var got *bool
	s.Inject(src, func(o bool) { got = &o })
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("failed source should not deliver")
	}
	if w.Tracer().Counts().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestUnbuiltSystemRejectsInject(t *testing.T) {
	w := scenario.Build(scenario.Params{Seed: 8, Sensors: 20})
	s := New(w)
	var got *bool
	s.Inject(scenario.SensorIDs(w)[0], func(o bool) { got = &o })
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("unbuilt system should drop")
	}
}

func TestDeliveryUnderMobility(t *testing.T) {
	w := scenario.Build(scenario.Params{Seed: 9, Sensors: 200, MaxSpeed: 2})
	s := New(w)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	delivered, attempts := 0, 0
	var round func()
	round = func() {
		if w.Now() > 150*time.Second {
			return
		}
		ids := scenario.SensorIDs(w)
		for i := 0; i < 5; i++ {
			src := ids[w.Rand().Intn(len(ids))]
			attempts++
			s.Inject(src, func(ok bool) {
				if ok {
					delivered++
				}
			})
		}
		if _, err := w.Sched.After(10*time.Second, round); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	round()
	w.Sched.RunUntil(200 * time.Second)
	if attempts == 0 || delivered < attempts/2 {
		t.Fatalf("delivered %d/%d under mobility", delivered, attempts)
	}
}
