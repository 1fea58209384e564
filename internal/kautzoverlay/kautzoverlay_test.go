package kautzoverlay

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/mobility"
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

func TestBuildSizesOverlayToMembers(t *testing.T) {
	w, s := buildSystem(t, 1, 200, 0)
	g := s.Graph()
	if g == nil {
		t.Fatal("no graph")
	}
	// The overlay is built over elected super-nodes (actuators + spaced
	// sensors), so it is a small complete Kautz graph, not the population.
	if g.N() > 48 || g.N() < 6 {
		t.Fatalf("overlay K(%d,%d) with %d members — expected a super-node overlay", g.Degree(), g.Diameter(), g.N())
	}
	// All actuators are members (they were elected first).
	for _, n := range w.Nodes() {
		if n.Kind != world.Actuator {
			continue
		}
		if _, ok := s.KIDOf(n.ID); !ok {
			t.Fatalf("actuator %d has no overlay ID", n.ID)
		}
	}
	// Elected sensor members are pairwise spaced.
	var members []world.NodeID
	for id := range s.kidOf {
		if w.Node(id).Kind == world.Sensor {
			members = append(members, id)
		}
	}
	if len(members) == 0 {
		t.Fatal("no sensor members elected")
	}
}

func TestBuildDiscoversOverlayLinks(t *testing.T) {
	_, s := buildSystem(t, 2, 100, 0)
	total, found := 0, 0
	for kid, id := range s.nodeOf {
		_ = id
		for _, succ := range s.Graph().Successors(kid) {
			total++
			if len(s.links[linkKey{from: kid, to: succ}]) > 0 {
				found++
			}
		}
	}
	if total == 0 {
		t.Fatal("no overlay arcs")
	}
	if found < total*8/10 {
		t.Fatalf("only %d/%d overlay links have physical paths", found, total)
	}
}

func TestConstructionEnergyDominates(t *testing.T) {
	// The paper's Figure 10 point: overlay construction is by far the most
	// expensive of the four systems because every node floods per overlay
	// neighbor. Sanity-check it is much larger than a handful of unicasts.
	w, _ := buildSystem(t, 3, 100, 0)
	if got := w.TotalEnergy(energy.Construction); got < 1000 {
		t.Fatalf("construction energy = %.1f J, expected thousands", got)
	}
}

func TestInjectDelivers(t *testing.T) {
	w, s := buildSystem(t, 4, 200, 0)
	delivered, attempts := 0, 0
	for _, id := range scenario.SensorIDs(w)[:30] {
		attempts++
		s.Inject(id, func(ok bool) {
			if ok {
				delivered++
			}
		})
	}
	w.Sched.Run()
	if delivered < attempts*6/10 {
		t.Fatalf("delivered %d/%d on a static network", delivered, attempts)
	}
}

func TestInjectUsesMultiHopOverlayPaths(t *testing.T) {
	w, s := buildSystem(t, 5, 200, 0)
	// A Kautz-overlay delivery typically crosses several overlay arcs, each
	// a multi-hop physical path: total communication energy per packet is
	// much higher than a 3-hop REFER-style delivery (~8 J).
	src := scenario.SensorIDs(w)[10]
	ok := false
	s.Inject(src, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Skip("delivery failed on this seed; energy comparison not meaningful")
	}
	if got := w.TotalEnergy(energy.Communication); got < 15 {
		t.Fatalf("one overlay delivery cost %.1f J — expected well above a direct path", got)
	}
}

func TestLinkRebuildOnBreak(t *testing.T) {
	w, s := buildSystem(t, 6, 200, 0)
	// Fail an intermediate node of some overlay link, then route across it.
	var key linkKey
	var victim world.NodeID = world.NoNode
	for k, path := range s.links {
		if len(path) >= 3 && w.Node(path[1]).Kind == world.Sensor {
			key, victim = k, path[1]
			break
		}
	}
	if victim == world.NoNode {
		t.Skip("no multi-hop overlay link")
	}
	w.SetFailed(victim, true)
	from := s.nodeOf[key.from]
	done := false
	ok := false
	s.overlayHop(key.from, key.to, from, s.nodeOf[key.to], true, func(o bool) { done, ok = true, o })
	w.Sched.Run()
	if !done {
		t.Fatal("overlayHop never completed")
	}
	if ok && s.Stats().PathRebuilds == 0 {
		t.Fatal("hop succeeded without rebuilding a broken path")
	}
}

func TestFailoverAcrossOverlayPaths(t *testing.T) {
	w, s := buildSystem(t, 7, 200, 0)
	// Fail a random member and keep injecting: Theorem 3.8 failover should
	// keep most deliveries alive.
	var member world.NodeID = world.NoNode
	for id := range s.kidOf {
		if w.Node(id).Kind == world.Sensor {
			member = id
			break
		}
	}
	w.SetFailed(member, true)
	delivered, attempts := 0, 0
	for _, id := range scenario.SensorIDs(w)[:20] {
		if id == member {
			continue
		}
		attempts++
		s.Inject(id, func(ok bool) {
			if ok {
				delivered++
			}
		})
	}
	w.Sched.Run()
	if delivered < attempts/2 {
		t.Fatalf("delivered %d/%d with one failed member", delivered, attempts)
	}
}

func TestInjectFailedSource(t *testing.T) {
	w, s := buildSystem(t, 8, 100, 0)
	src := scenario.SensorIDs(w)[0]
	w.SetFailed(src, true)
	var got *bool
	s.Inject(src, func(o bool) { got = &o })
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("failed source should drop")
	}
}

func TestBuildRejectsTinyPopulation(t *testing.T) {
	w := world.New(world.Config{Seed: 1})
	s := New(w)
	if err := s.Build(); err == nil {
		t.Fatal("empty world should be rejected")
	}
}

func TestRoutesMatchTheorem(t *testing.T) {
	// The overlay uses the shared kautz.Routes; spot-check one relay's
	// ranked successors agree with Theorem 3.8 on the overlay graph.
	_, s := buildSystem(t, 9, 200, 0)
	var kid kautz.ID
	for k := range s.nodeOf {
		kid = k
		break
	}
	var dst kautz.ID
	for k := range s.nodeOf {
		if k != kid {
			dst = k
			break
		}
	}
	routes, err := kautz.Routes(2, kid, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 {
		t.Fatalf("expected 2 disjoint routes in a degree-2 overlay, got %d", len(routes))
	}
}

func TestDeliveryUnderMobilityDegrades(t *testing.T) {
	// Kautz-overlay is the system mobility hurts most (Figure 4): multi-hop
	// overlay links break constantly. We only require the system to keep
	// functioning (some deliveries, heavy rebuild activity).
	w := scenario.Build(scenario.Params{Seed: 10, Sensors: 200, MaxSpeed: 3})
	s := New(w)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	w.Sched.RunUntil(5 * time.Second)
	delivered, attempts := 0, 0
	var round func()
	round = func() {
		if w.Now() > 100*time.Second {
			return
		}
		ids := scenario.SensorIDs(w)
		for i := 0; i < 3; i++ {
			attempts++
			s.Inject(ids[w.Rand().Intn(len(ids))], func(ok bool) {
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
	w.Sched.RunUntil(150 * time.Second)
	if attempts == 0 {
		t.Fatal("no attempts")
	}
	if delivered == 0 && s.Stats().PathRebuilds == 0 {
		t.Fatalf("no deliveries and no rebuild activity (%d attempts)", attempts)
	}
}

func TestInjectFromOverlayMember(t *testing.T) {
	w, s := buildSystem(t, 11, 200, 0)
	var member world.NodeID = world.NoNode
	for id := range s.kidOf {
		if w.Node(id).Kind == world.Sensor {
			member = id
			break
		}
	}
	if member == world.NoNode {
		t.Skip("no sensor member")
	}
	ok := false
	s.Inject(member, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("member inject failed")
	}
}

func TestInjectNoMemberInRangeDrops(t *testing.T) {
	// Place an isolated extra sensor far from everyone: no overlay member
	// in range and no route.
	w := scenario.Build(scenario.Params{Seed: 12, Sensors: 150})
	s := New(w)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	w.Sched.Run()
	// Pinned in a far corner with a 1 m range: nobody linkable.
	orphan := w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: 499, Y: 499}}, 1, 0)
	w.SetTracer(trace.NewRecorder(1 << 30))
	var got *bool
	s.Inject(orphan.ID, func(o bool) { got = &o })
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("isolated source should drop")
	}
	if w.Tracer().Counts().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestRouteBudgetExhaustion(t *testing.T) {
	w, s := buildSystem(t, 13, 200, 0)
	// A zero budget drops immediately unless already at the destination.
	var kidA, kidB kautz.ID
	for k := range s.nodeOf {
		if kidA == "" {
			kidA = k
		} else if k != kidA {
			kidB = k
			break
		}
	}
	var got *bool
	s.route(s.nodeOf[kidA], kidB, 0, w.OpenPacket(s.nodeOf[kidA], func(ok bool) { got = &ok }))
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("zero budget should drop")
	}
	// At the destination it succeeds regardless of budget.
	delivered := false
	s.route(s.nodeOf[kidA], kidA, 0, w.OpenPacket(s.nodeOf[kidA], func(ok bool) { delivered = ok }))
	if !delivered {
		t.Fatal("route to self should succeed")
	}
}

func TestNonMemberCannotRoute(t *testing.T) {
	w, s := buildSystem(t, 14, 200, 0)
	// route() at a node without an overlay ID fails cleanly.
	var plain world.NodeID = world.NoNode
	for _, id := range scenario.SensorIDs(w) {
		if _, member := s.kidOf[id]; !member {
			plain = id
			break
		}
	}
	if plain == world.NoNode {
		t.Skip("everyone is a member")
	}
	var got *bool
	var anyKID kautz.ID
	for k := range s.nodeOf {
		anyKID = k
		break
	}
	s.route(plain, anyKID, 5, w.OpenPacket(plain, func(ok bool) { got = &ok }))
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("non-member routing should fail")
	}
}

// TestDirectRoutesMatchTable runs the direct-computation fallback that
// overlays too large to tabulate take. One seed is built twice, the second
// time without its route table; the same injection campaign under mobility
// and a failed member must then deliver the same packets at the same times
// for the same energy, with every table hit of the first run a miss of the
// second.
func TestDirectRoutesMatchTable(t *testing.T) {
	type outcome struct {
		deliveries []string
		energy     float64
		stats      Stats
	}
	campaign := func(direct bool) outcome {
		w, s := buildSystem(t, 11, 200, 3)
		if direct {
			s.routes = nil
		}
		failed := 0
		for _, id := range scenario.SensorIDs(w) {
			if _, ok := s.KIDOf(id); ok && failed < 3 {
				w.SetFailed(id, true)
				failed++
			}
		}
		var out outcome
		for i, id := range scenario.SensorIDs(w)[:60] {
			s.Inject(id, func(ok bool) {
				out.deliveries = append(out.deliveries, fmt.Sprintf("%d:%v@%v", i, ok, w.Now()))
			})
			w.Sched.RunUntil(w.Now() + time.Second)
		}
		w.Sched.Run()
		out.energy = w.TotalEnergy(energy.Communication)
		out.stats = s.Stats()
		return out
	}
	tabled, direct := campaign(false), campaign(true)
	if tabled.stats.RouteCacheHits == 0 || tabled.stats.RouteCacheMisses != 0 {
		t.Fatalf("tabled run: %d hits, %d misses; want only hits", tabled.stats.RouteCacheHits, tabled.stats.RouteCacheMisses)
	}
	if direct.stats.RouteCacheHits != 0 || direct.stats.RouteCacheMisses != tabled.stats.RouteCacheHits {
		t.Fatalf("direct run: %d hits, %d misses; want 0 hits, %d misses",
			direct.stats.RouteCacheHits, direct.stats.RouteCacheMisses, tabled.stats.RouteCacheHits)
	}
	if tabled.stats.FailoverSwitches == 0 {
		t.Fatal("campaign never failed over: the route sets' order is not exercised")
	}
	direct.stats.RouteCacheHits, direct.stats.RouteCacheMisses = tabled.stats.RouteCacheHits, 0
	if !reflect.DeepEqual(tabled, direct) {
		t.Fatalf("direct routes change the run:\ntabled %+v\ndirect %+v", tabled, direct)
	}
}
