package ddear

import (
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

// Heads returns the elected cluster heads.
func (s *System) Heads() []world.NodeID {
	return append([]world.NodeID(nil), s.heads...)
}

// HeadOf returns a member's cluster head.
func (s *System) HeadOf(id world.NodeID) (world.NodeID, bool) {
	h, ok := s.headOf[id]
	return h, ok
}

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

func TestBuildElectsHeadsAndAttachesMembers(t *testing.T) {
	w, s := buildSystem(t, 1, 200, 0)
	heads := s.Heads()
	if len(heads) == 0 {
		t.Fatal("no cluster heads elected")
	}
	headSet := make(map[world.NodeID]bool)
	for _, h := range heads {
		if w.Node(h).Kind != world.Sensor {
			t.Fatalf("head %d is not a sensor", h)
		}
		headSet[h] = true
	}
	attached := 0
	for _, id := range scenario.SensorIDs(w) {
		h, ok := s.HeadOf(id)
		if !ok {
			continue
		}
		attached++
		if !headSet[h] {
			t.Fatalf("sensor %d attached to non-head %d", id, h)
		}
	}
	if attached < len(scenario.SensorIDs(w))*8/10 {
		t.Fatalf("only %d sensors attached to clusters", attached)
	}
	// Heads are sparse: the 2-hop separation rule keeps them well below
	// the population.
	if len(heads) > len(scenario.SensorIDs(w))/3 {
		t.Fatalf("%d heads for %d sensors — separation rule broken", len(heads), len(scenario.SensorIDs(w)))
	}
}

func TestBuildBackbonePaths(t *testing.T) {
	w, s := buildSystem(t, 2, 200, 0)
	withPath := 0
	for _, h := range s.Heads() {
		path := s.backbone[h]
		if len(path) == 0 {
			continue
		}
		withPath++
		if path[0] != h {
			t.Fatalf("backbone of %d starts at %d", h, path[0])
		}
		last := path[len(path)-1]
		if w.Node(last).Kind != world.Actuator {
			t.Fatalf("backbone of %d ends at non-actuator %d", h, last)
		}
	}
	if withPath < len(s.Heads())*8/10 {
		t.Fatalf("only %d/%d heads found an actuator path", withPath, len(s.Heads()))
	}
}

func TestConstructionLedger(t *testing.T) {
	w, _ := buildSystem(t, 3, 200, 0)
	if w.TotalEnergy(energy.Construction) <= 0 {
		t.Fatal("no construction energy")
	}
	if w.TotalEnergy(energy.Communication) != 0 {
		t.Fatal("communication ledger charged during build")
	}
}

func TestInjectDelivers(t *testing.T) {
	w, s := buildSystem(t, 4, 200, 0)
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
	if delivered < attempts*8/10 {
		t.Fatalf("delivered %d/%d on a static fault-free network", delivered, attempts)
	}
}

func TestRepairOnBrokenBackbone(t *testing.T) {
	w, s := buildSystem(t, 5, 200, 0)
	// Break a head's backbone by failing its first relay.
	var head world.NodeID = world.NoNode
	var victim world.NodeID
	for _, h := range s.Heads() {
		path := s.backbone[h]
		if len(path) >= 3 && w.Node(path[1]).Kind == world.Sensor {
			head, victim = h, path[1]
			break
		}
	}
	if head == world.NoNode {
		t.Skip("no multi-hop backbone in this deployment")
	}
	w.SetFailed(victim, true)
	ok := false
	s.Inject(head, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("head packet not delivered despite repair")
	}
	if s.Stats().Repairs == 0 || s.Stats().Retransmits == 0 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestOrphanReattachesOnDemand(t *testing.T) {
	w, s := buildSystem(t, 6, 200, 0)
	// Fabricate an orphan: remove a member's attachment.
	var orphan world.NodeID = world.NoNode
	for _, id := range scenario.SensorIDs(w) {
		if h, ok := s.HeadOf(id); ok && h != id {
			orphan = id
			break
		}
	}
	if orphan == world.NoNode {
		t.Skip("no member found")
	}
	delete(s.headOf, orphan)
	delete(s.relayTo, orphan)
	ok := false
	s.Inject(orphan, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("orphan could not reattach and deliver")
	}
	if _, attached := s.HeadOf(orphan); !attached {
		t.Fatal("orphan not re-attached")
	}
}

func TestInjectFromActuator(t *testing.T) {
	w, s := buildSystem(t, 7, 100, 0)
	ok := false
	s.Inject(0, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("actuator self-inject should succeed")
	}
}

func TestInjectFailedSourceDrops(t *testing.T) {
	w, s := buildSystem(t, 8, 100, 0)
	src := scenario.SensorIDs(w)[0]
	w.SetFailed(src, true)
	w.SetTracer(trace.NewRecorder(1 << 30))
	var got *bool
	s.Inject(src, func(o bool) { got = &o })
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("failed source should drop")
	}
	if w.Tracer().Counts().Dropped == 0 {
		t.Fatal("drop not counted")
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
