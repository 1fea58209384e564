package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/kautz"
	"refer/internal/mobility"
	"refer/internal/trace"
	"refer/internal/world"
)

// actuatorLayout is the canonical 5-actuator layout that triangulates into
// the paper's 4 cells: four corners plus a center.
var actuatorLayout = []geo.Point{
	{X: 150, Y: 150},
	{X: 350, Y: 150},
	{X: 350, Y: 350},
	{X: 150, Y: 350},
	{X: 250, Y: 250},
}

// buildWorld creates the default scenario: 5 static actuators (range 250 m)
// and n sensors (range 100 m) deployed around random actuators, moving at
// up to maxSpeed m/s.
func buildWorld(t *testing.T, seed int64, n int, maxSpeed float64) *world.World {
	t.Helper()
	w := world.New(world.Config{Region: geo.Square(500), Seed: seed})
	for _, p := range actuatorLayout {
		w.AddNode(world.Actuator, mobility.Static{P: p}, 250, 0)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	draws := mobility.NewDraws()
	for i := 0; i < n; i++ {
		anchor := actuatorLayout[rng.Intn(len(actuatorLayout))]
		p := w.Config().Region.RandomPointNear(rng, anchor, 140)
		if maxSpeed > 0 {
			w.AddNode(world.Sensor, mobility.NewWaypoint(w.Config().Region, p, maxSpeed, rng.Int63(), draws), 100, 0)
		} else {
			w.AddNode(world.Sensor, mobility.Static{P: p}, 100, 0)
		}
	}
	return w
}

// holderOf returns the node holding kid in c, or world.NoNode.
func holderOf(c *Cell, kid kautz.ID) world.NodeID {
	id, _ := c.Node(kid)
	return id
}

// buildSystem builds REFER on a fresh default world.
func buildSystem(t *testing.T, seed int64, n int, maxSpeed float64) (*world.World, *System) {
	t.Helper()
	w := buildWorld(t, seed, n, maxSpeed)
	s := New(w, DefaultConfig())
	if err := s.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w, s
}

func TestBuildCreatesFourCompleteCells(t *testing.T) {
	_, s := buildSystem(t, 1, 200, 0)
	if got := len(s.Cells()); got != 4 {
		t.Fatalf("cells = %d, want 4", got)
	}
	for _, c := range s.Cells() {
		if got := c.held(); got != 12 {
			t.Fatalf("cell %d has %d overlay members, want 12 (K(2,3))", c.CID, got)
		}
		// The three corners are actuators holding the rotation KIDs.
		kids := map[kautz.ID]bool{}
		for _, corner := range c.Corners {
			kid, ok := c.KIDOf(corner)
			if !ok {
				t.Fatalf("cell %d corner %d has no KID", c.CID, corner)
			}
			kids[kid] = true
		}
		for _, want := range []kautz.ID{"012", "120", "201"} {
			if !kids[want] {
				t.Fatalf("cell %d corner KIDs = %v, missing %s", c.CID, kids, want)
			}
		}
		// Every overlay sensor is inside the (expanded) cell.
		for r, id := range c.holder {
			kid := c.kids[r]
			if c.isCorner(id) {
				continue
			}
			n := s.w.Node(id)
			if n.Kind != world.Sensor {
				t.Fatalf("cell %d KID %s held by non-sensor %d", c.CID, kid, id)
			}
		}
	}
}

func TestBuildChainAdjacency(t *testing.T) {
	// The embedding protocol selects sensors along radio-connected chains:
	// each corner-to-successor path and the sensor-sensor path must be
	// physically connected hop by hop.
	w, s := buildSystem(t, 2, 200, 0)
	for _, c := range s.Cells() {
		for _, x := range []kautz.ID{"012", "120", "201"} {
			s1, s2 := pathKIDs(x)
			chain := []kautz.ID{x, s1, s2, rotateLeft(x)}
			for i := 0; i+1 < len(chain); i++ {
				a, b := holderOf(c, chain[i]), holderOf(c, chain[i+1])
				if d := w.Distance(a, b); d > 100 {
					t.Errorf("cell %d chain %s→%s: nodes %d,%d are %.0f m apart (>100)",
						c.CID, chain[i], chain[i+1], a, b, d)
				}
			}
		}
	}
}

func TestBuildChargesConstructionEnergy(t *testing.T) {
	w, _ := buildSystem(t, 3, 200, 0)
	if got := w.TotalEnergy(energy.Construction); got <= 0 {
		t.Fatal("construction energy not charged")
	}
	if got := w.TotalEnergy(energy.Communication); got != 0 {
		t.Fatalf("communication energy = %f during construction, want 0", got)
	}
}

// TestSystemKnobs pins REFER's in-process knobs to the ones some non-test
// caller sets to a second value. A setting with one value in use is a
// constant (refer.go); it becomes a field the day a second value does.
func TestSystemKnobs(t *testing.T) {
	want := []string{"Degree", "ProbeInterval", "DisableFailover", "DisableMaintenance"}
	var got []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("core.Config fields = %v, want exactly %v", got, want)
	}
}

func TestBuildValidation(t *testing.T) {
	w := buildWorld(t, 4, 50, 0)
	s := New(w, Config{Degree: 3})
	if err := s.Build(); err == nil {
		t.Error("degree 3 embedding should be rejected")
	}
	// Too few actuators.
	w2 := world.New(world.Config{Region: geo.Square(500), Seed: 1})
	w2.AddNode(world.Actuator, mobility.Static{P: geo.Point{X: 100, Y: 100}}, 250, 0)
	w2.AddNode(world.Actuator, mobility.Static{P: geo.Point{X: 200, Y: 100}}, 250, 0)
	s2 := New(w2, DefaultConfig())
	if err := s2.Build(); err == nil {
		t.Error("2 actuators should be rejected")
	}
	// Double build.
	_, s3 := buildSystem(t, 5, 200, 0)
	if err := s3.Build(); err == nil {
		t.Error("second Build should fail")
	}
}

func TestAddressOf(t *testing.T) {
	_, s := buildSystem(t, 6, 200, 0)
	c := s.Cells()[0]
	corner := c.Corners[0]
	addr, ok := s.AddressOf(corner)
	if !ok {
		t.Fatal("corner has no address")
	}
	if addr.CID != c.CID {
		t.Fatalf("corner address = %v, want CID %d", addr, c.CID)
	}
	if addr.String() == "" {
		t.Error("empty address string")
	}
	// A plain sensor has no address.
	for _, n := range s.w.Nodes() {
		if n.Kind != world.Sensor {
			continue
		}
		if _, isMember := s.sensorCell[n.ID]; !isMember {
			if _, ok := s.AddressOf(n.ID); ok {
				t.Fatalf("unaffiliated sensor %d has an address", n.ID)
			}
			break
		}
	}
}

func TestInjectDeliversToActuator(t *testing.T) {
	w, s := buildSystem(t, 7, 200, 0)
	s.StopMaintenance()
	delivered := 0
	attempts := 0
	for _, n := range w.Nodes() {
		if n.Kind != world.Sensor || attempts >= 40 {
			continue
		}
		attempts++
		s.Inject(n.ID, func(ok bool) {
			if ok {
				delivered++
			}
		})
	}
	w.Sched.Run()
	if delivered < attempts*8/10 {
		t.Fatalf("delivered %d of %d injected packets", delivered, attempts)
	}
}

func TestInjectFromOverlayMemberIsFast(t *testing.T) {
	w, s := buildSystem(t, 8, 200, 0)
	s.StopMaintenance()
	w.Sched.Run() // drain construction airtime before measuring
	started := w.Now()
	c := s.Cells()[0]
	// Pick the overlay sensor holding KID 021 (farthest class from corners).
	src := holderOf(c, "021")
	var deliveredAt time.Duration
	ok := false
	s.Inject(src, func(o bool) { ok, deliveredAt = o, w.Now() })
	w.Sched.Run()
	if !ok {
		t.Fatal("not delivered")
	}
	// Intra-cell paths are at most k=3 overlay hops (each ≤ 2 radio hops):
	// delivery should be well within the QoS deadline.
	if deliveredAt-started > 100*time.Millisecond {
		t.Fatalf("delivery took %v", deliveredAt-started)
	}
}

func TestRoutingFailoverOnFault(t *testing.T) {
	w, s := buildSystem(t, 9, 200, 0)
	s.StopMaintenance()
	c := s.Cells()[0]
	// Source 021 routes toward its nearest corner; fail one mid-path sensor
	// and verify delivery still succeeds via a disjoint path.
	src := holderOf(c, "021")
	corners, _ := s.cornersByKautzDistance(c, "021")
	dstKID := corners[0]
	routes, err := kautz.Routes(2, "021", dstKID)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the shortest path's first intermediate (if it is a sensor).
	shortest := routes[0]
	victimKID := shortest.Path[1]
	if c.isCorner(holderOf(c, victimKID)) {
		t.Skip("shortest path starts at an actuator; scenario not applicable")
	}
	w.SetFailed(holderOf(c, victimKID), true)
	ok := false
	s.Inject(src, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("packet not delivered despite d-1 disjoint alternatives")
	}
	if s.Stats().FailoverSwitches == 0 {
		t.Fatal("no failover recorded")
	}
}

func TestRoutingAllPathsDeadDrops(t *testing.T) {
	w, s := buildSystem(t, 10, 200, 0)
	s.StopMaintenance()
	c := s.Cells()[0]
	src := holderOf(c, "021")
	// Kill every overlay sensor except the source: no route survives.
	for r, id := range c.holder {
		if c.kids[r] == "021" || c.isCorner(id) {
			continue
		}
		w.SetFailed(id, true)
	}
	w.SetTracer(trace.NewRecorder(1 << 30))
	var got *bool
	s.Inject(src, func(o bool) { got = &o })
	w.Sched.Run()
	if got == nil {
		t.Fatal("done callback never fired")
	}
	// 021's successors are 210/212 (sensors, dead); its corners are not
	// direct successors, so the packet must be dropped.
	if *got {
		t.Log("delivered via relay fallback — acceptable if a relay path existed")
	} else if w.Tracer().Counts().Dropped == 0 {
		t.Fatal("drop not recorded")
	}
}

func TestSendToSameCell(t *testing.T) {
	w, s := buildSystem(t, 11, 200, 0)
	s.StopMaintenance()
	c := s.Cells()[0]
	src := holderOf(c, "101")
	ok := false
	s.SendTo(src, Address{CID: c.CID, KID: "201"}, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("intra-cell SendTo failed")
	}
}

func TestSendToOtherCell(t *testing.T) {
	w, s := buildSystem(t, 12, 200, 0)
	s.StopMaintenance()
	if len(s.Cells()) < 2 {
		t.Skip("need 2+ cells")
	}
	src := holderOf(s.Cells()[0], "010")
	dst := s.Cells()[len(s.Cells())-1]
	ok := false
	s.SendTo(src, Address{CID: dst.CID, KID: "212"}, func(o bool) { ok = o })
	w.Sched.Run()
	if !ok {
		t.Fatal("inter-cell SendTo failed")
	}
	if s.Stats().InterCell == 0 {
		t.Fatal("inter-cell counter not incremented")
	}
}

func TestSendToInvalidDestination(t *testing.T) {
	w, s := buildSystem(t, 13, 200, 0)
	s.StopMaintenance()
	src := holderOf(s.Cells()[0], "010")
	var ok *bool
	s.SendTo(src, Address{CID: 999, KID: "212"}, func(o bool) { ok = &o })
	w.Sched.Run()
	if ok == nil || *ok {
		t.Fatal("SendTo to unknown cell should fail")
	}
	// A known cell with a KID that is no node of K(2,3): dropped, not a
	// panic on the holder slot.
	for _, kid := range foreignKIDs {
		ok = nil
		s.SendTo(src, Address{CID: s.Cells()[0].CID, KID: kid}, func(o bool) { ok = &o })
		w.Sched.Run()
		if ok == nil || *ok {
			t.Fatalf("SendTo to KID %q should fail", kid)
		}
	}
}

// foreignKIDs are no nodes of K(2,3): empty, a digit above d, too long,
// and out of the alphabet.
var foreignKIDs = []kautz.ID{"", "013", "0123", "999"}

func TestCellNodeRejectsForeignKIDs(t *testing.T) {
	_, s := buildSystem(t, 13, 200, 0)
	c := s.Cells()[0]
	for _, kid := range foreignKIDs {
		if id, ok := c.Node(kid); ok || id != world.NoNode {
			t.Errorf("Node(%q) = %d, %t; want NoNode, false", kid, id, ok)
		}
	}
	for _, kid := range s.kids {
		id, ok := c.Node(kid)
		if !ok {
			t.Fatalf("built cell leaves KID %s free", kid)
		}
		if got, ok := c.KIDOf(id); !ok || got != kid {
			t.Fatalf("KIDOf(Node(%s)) = %s, %t", kid, got, ok)
		}
	}
	// A free slot is no holder: NoNode holds no KID and the KID has none.
	c.holder[5] = world.NoNode
	if kid, ok := c.KIDOf(world.NoNode); ok {
		t.Errorf("KIDOf(NoNode) = %s, want none", kid)
	}
	if id, ok := c.Node(s.kids[5]); ok {
		t.Errorf("Node(%s) = %d after freeing it", s.kids[5], id)
	}
}

func TestInjectFromFailedSource(t *testing.T) {
	w, s := buildSystem(t, 14, 200, 0)
	s.StopMaintenance()
	src := holderOf(s.Cells()[0], "010")
	w.SetFailed(src, true)
	var ok *bool
	s.Inject(src, func(o bool) { ok = &o })
	w.Sched.Run()
	if ok == nil || *ok {
		t.Fatal("inject from failed source should fail")
	}
}

func TestMaintenanceReplacesFailedNode(t *testing.T) {
	w, s := buildSystem(t, 15, 200, 0)
	c := s.Cells()[0]
	victimKID := kautz.ID("210")
	victim := holderOf(c, victimKID)
	w.SetFailed(victim, true)
	w.Sched.RunUntil(30 * time.Second) // several maintenance rounds
	replacement := holderOf(c, victimKID)
	if replacement == victim {
		t.Fatal("failed overlay node was never replaced")
	}
	if !w.Node(replacement).Alive() {
		t.Fatal("replacement is not alive")
	}
	if s.Stats().Replacements == 0 {
		t.Fatal("replacement not counted")
	}
	// The demoted node returns to the sleep pool.
	if _, stillMember := c.KIDOf(victim); stillMember {
		t.Fatal("victim still in overlay")
	}
}

func TestMaintenanceKeepsDeliveryUnderMobility(t *testing.T) {
	// With mobile sensors and maintenance on, injection keeps succeeding
	// over time because degraded overlay nodes are replaced.
	w := buildWorld(t, 16, 250, 1.5)
	s := New(w, DefaultConfig())
	if err := s.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	delivered, attempts := 0, 0
	var injectRound func()
	injectRound = func() {
		if w.Now() > 280*time.Second {
			return
		}
		for _, c := range s.Cells() {
			src := holderOf(c, "021")
			if src == world.NoNode || !w.Node(src).Alive() {
				continue
			}
			attempts++
			s.Inject(src, func(ok bool) {
				if ok {
					delivered++
				}
			})
		}
		if _, err := w.Sched.After(10*time.Second, injectRound); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	injectRound()
	w.Sched.RunUntil(300 * time.Second)
	if attempts == 0 {
		t.Fatal("no injection attempts")
	}
	if delivered < attempts*7/10 {
		t.Fatalf("delivered %d/%d under mobility with maintenance", delivered, attempts)
	}
}

func TestDeterministicBuild(t *testing.T) {
	_, s1 := buildSystem(t, 17, 200, 0)
	_, s2 := buildSystem(t, 17, 200, 0)
	for i := range s1.Cells() {
		c1, c2 := s1.Cells()[i], s2.Cells()[i]
		if c1.CID != c2.CID || c1.held() != c2.held() {
			t.Fatalf("cells differ at %d", i)
		}
		for r, id := range c1.holder {
			if c2.holder[r] != id {
				t.Fatalf("cell %d KID %s: %d vs %d", c1.CID, c1.kids[r], id, c2.holder[r])
			}
		}
	}
	// The starting-server election is total and order-independent: the same
	// actuator wins however the actuator list is ordered.
	want := electLeader(s1.actuators)
	perm := append([]world.NodeID(nil), s1.actuators...)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := electLeader(perm); got != want {
			t.Fatalf("leader depends on order: %d for %v, want %d", got, perm, want)
		}
	}
}

// TestCellMembersExcludesOverlay checks the candidate pool that probers,
// replacements and the embedding draw from: exactly the cell's alive members
// that hold no KID, in ascending ID order. Every holder is listed as a member
// first, so the exclusion is exercised whatever members holds after Build.
func TestCellMembersExcludesOverlay(t *testing.T) {
	w, s := buildSystem(t, 18, 200, 0)
	c := s.Cells()[0]
	for _, id := range c.holder {
		c.members[id] = true
	}
	var plain []world.NodeID
	for id := range c.members {
		if _, overlay := c.KIDOf(id); !overlay {
			plain = append(plain, id)
		}
	}
	if len(plain) < 2 {
		t.Fatalf("cell %d has %d plain members, want at least 2", c.CID, len(plain))
	}
	w.SetFailed(plain[0], true)
	want := 0
	for _, id := range plain {
		if w.Node(id).Alive() {
			want++
		}
	}
	pool := s.candidatePool(c)
	if len(pool) != want {
		t.Fatalf("candidate pool has %d sensors, want the %d alive plain members", len(pool), want)
	}
	for i, id := range pool {
		if _, overlay := c.KIDOf(id); overlay {
			t.Fatalf("candidate pool holds overlay node %d", id)
		}
		if !w.Node(id).Alive() || !c.members[id] {
			t.Fatalf("candidate pool holds %d, not an alive member", id)
		}
		if i > 0 && pool[i-1] >= id {
			t.Fatalf("candidate pool not in ascending ID order: %v", pool)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	_, s := buildSystem(t, 19, 200, 0)
	st := s.Stats()
	if st.FailoverSwitches != 0 || st.Replacements != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
}

func TestDisableFailoverDropsOnFirstFailure(t *testing.T) {
	w := buildWorld(t, 20, 200, 0)
	cfg := DefaultConfig()
	cfg.DisableFailover = true
	s := New(w, cfg)
	if err := s.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	s.StopMaintenance()
	c := s.Cells()[0]
	src := holderOf(c, "021")
	// Fail the greedy shortest successor toward the first-choice corner.
	corners, _ := s.cornersByKautzDistance(c, "021")
	dstKID := corners[0]
	routes, err := kautz.Routes(2, "021", dstKID)
	if err != nil {
		t.Fatal(err)
	}
	victimKID := routes[0].Path[1]
	if c.isCorner(holderOf(c, victimKID)) {
		t.Skip("successor is an actuator")
	}
	w.SetFailed(holderOf(c, victimKID), true)
	var got *bool
	s.Inject(src, func(ok bool) { got = &ok })
	w.Sched.Run()
	if got == nil {
		t.Fatal("no outcome")
	}
	if *got {
		t.Fatal("ablated router should drop when the greedy successor fails")
	}
	// The full router delivers the same packet (fresh world, same seed).
	w2 := buildWorld(t, 20, 200, 0)
	s2 := New(w2, DefaultConfig())
	if err := s2.Build(); err != nil {
		t.Fatal(err)
	}
	s2.StopMaintenance()
	w2.SetFailed(holderOf(s2.Cells()[0], victimKID), true)
	delivered := false
	s2.Inject(holderOf(s2.Cells()[0], "021"), func(ok bool) { delivered = ok })
	w2.Sched.Run()
	if !delivered {
		t.Fatal("full router should deliver via a disjoint path")
	}
}

func TestDisableMaintenanceLeavesFailuresUnrepaired(t *testing.T) {
	w := buildWorld(t, 21, 200, 0)
	cfg := DefaultConfig()
	cfg.DisableMaintenance = true
	s := New(w, cfg)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	c := s.Cells()[0]
	victim := holderOf(c, "210")
	w.SetFailed(victim, true)
	w.Sched.RunUntil(60 * time.Second)
	if holderOf(c, "210") != victim {
		t.Fatal("maintenance ran despite being disabled")
	}
	if s.Stats().Replacements != 0 {
		t.Fatal("replacements counted with maintenance disabled")
	}
}

func TestTwoPhaseReplacementDelay(t *testing.T) {
	// A freshly failed overlay sensor survives the first probe round
	// (detection) and is replaced on the second — the window where the
	// Theorem 3.8 failover carries the traffic.
	w, s := buildSystem(t, 22, 200, 0)
	c := s.Cells()[0]
	victim := holderOf(c, "210")
	w.SetFailed(victim, true)
	interval := DefaultConfig().ProbeInterval
	// After one probe round the node is detected but not yet replaced.
	w.Sched.RunUntil(interval + interval/2)
	if holderOf(c, "210") != victim {
		t.Fatal("replaced too early (within one probe round)")
	}
	// After the second round it must be replaced.
	w.Sched.RunUntil(3 * interval)
	if holderOf(c, "210") == victim {
		t.Fatal("not replaced after two probe rounds")
	}
}

func TestGeneralEmbeddingK33(t *testing.T) {
	w := buildWorld(t, 23, 350, 0)
	cfg := DefaultConfig()
	cfg.Degree = 3
	s := New(w, cfg)
	if err := s.Build(); err != nil {
		t.Fatalf("K(3,3) Build: %v", err)
	}
	s.StopMaintenance()
	if got := len(s.Cells()); got != 4 {
		t.Fatalf("cells = %d", got)
	}
	for _, c := range s.Cells() {
		if got := c.held(); got != 36 {
			t.Fatalf("cell %d has %d members, want 36 (K(3,3))", c.CID, got)
		}
		// Corners still hold the rotation KIDs.
		for _, want := range []kautz.ID{"012", "120", "201"} {
			id, ok := c.Node(want)
			if !ok || s.w.Node(id).Kind != world.Actuator {
				t.Fatalf("cell %d corner %s not an actuator", c.CID, want)
			}
		}
	}
	// Every overlay member can reach an actuator through the d=3 router.
	delivered, attempts := 0, 0
	for _, c := range s.Cells() {
		for _, id := range c.holder {
			if c.isCorner(id) {
				continue
			}
			attempts++
			s.Inject(id, func(ok bool) {
				if ok {
					delivered++
				}
			})
		}
	}
	w.Sched.Run()
	if delivered < attempts*9/10 {
		t.Fatalf("delivered %d/%d from K(3,3) overlay members", delivered, attempts)
	}
}

func TestGeneralEmbeddingRejectsBadDegrees(t *testing.T) {
	w := buildWorld(t, 24, 100, 0)
	for _, d := range []int{0, 1, 6, 10} {
		cfg := DefaultConfig()
		cfg.Degree = d
		if cfg.Degree == 0 {
			continue // New() coerces 0 to the default
		}
		s := New(w, cfg)
		if err := s.Build(); err == nil {
			t.Errorf("degree %d accepted", d)
		}
	}
}

func TestGeneralEmbeddingSparseFails(t *testing.T) {
	// 100 sensors cannot host 33 overlay sensors per cell.
	w := buildWorld(t, 25, 100, 0)
	cfg := DefaultConfig()
	cfg.Degree = 3
	s := New(w, cfg)
	if err := s.Build(); err == nil {
		t.Fatal("K(3,3) on 100 sensors should fail to embed")
	}
}

// failoverCell hand-builds a one-relay routing scenario: the source holds
// KID 021, its two Kautz successors 210/212 sit physically out of range (so
// a transmission to them fails over the radio unless they are failed
// locally first), and corner 120 is the destination. It returns the system,
// the source node and the successor holders keyed by KID.
func failoverCell(t *testing.T) (*world.World, *System, *Cell, world.NodeID, map[kautz.ID]world.NodeID) {
	t.Helper()
	w := world.New(world.Config{Region: geo.Square(500), Seed: 1})
	src := w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: 100, Y: 100}}, 100, 0)
	n210 := w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: 480, Y: 480}}, 100, 0)
	n212 := w.AddNode(world.Sensor, mobility.Static{P: geo.Point{X: 420, Y: 480}}, 100, 0)
	dst := w.AddNode(world.Actuator, mobility.Static{P: geo.Point{X: 100, Y: 480}}, 250, 0)
	s := New(w, DefaultConfig())
	g, err := kautz.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.graph, s.kids = g, g.Nodes()
	if s.routes, err = kautz.TableFor(2, 3); err != nil {
		t.Fatal(err)
	}
	c := s.blankCell()
	for kid, id := range map[kautz.ID]world.NodeID{"021": src.ID, "210": n210.ID, "212": n212.ID, "120": dst.ID} {
		c.holder[g.Index(kid)] = id
	}
	succs := map[kautz.ID]world.NodeID{"210": n210.ID, "212": n212.ID}
	return w, s, c, src.ID, succs
}

// routeWithin starts a flight at overlay member src toward dstKID of the same
// hand-built cell, skipping entry selection (which needs a built system).
func routeWithin(s *System, c *Cell, src world.NodeID, dstKID kautz.ID, done func(ok bool)) {
	f := s.newFlight(src, done)
	f.cell, f.at, f.dstCell, f.dstKID = c, src, c, dstKID
	f.enter()
}

// TestFailoverSwitchInvariant checks the FailoverSwitches accounting
// invariant: every switch to an alternate disjoint path is counted exactly
// once — whether the abandoned successor was known dead locally or failed
// during transmission — and abandoning the last path (a drop, not a switch)
// is never counted. Routes from 021 to 120 rank 212 first (the greedy
// shortest path), then 210, so each sub-case pins down one failure mode per
// rank position.
func TestFailoverSwitchInvariant(t *testing.T) {
	cases := []struct {
		name string
		fail []kautz.ID // successors to fail locally before routing
	}{
		// Both transmissions fail over the radio: one switch (to the second
		// path), then the last path is abandoned without a count.
		{name: "both-transmission-failures", fail: nil},
		// First-ranked successor dead locally (free switch), second fails
		// during transmission with no alternate left.
		{name: "first-locally-dead", fail: []kautz.ID{"212"}},
		// First fails during transmission (one switch), second dead locally
		// with no alternate left.
		{name: "second-locally-dead", fail: []kautz.ID{"210"}},
		// Both dead locally: the single switch is the local one.
		{name: "both-locally-dead", fail: []kautz.ID{"210", "212"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, s, c, src, succs := failoverCell(t)
			for _, kid := range tc.fail {
				w.SetFailed(succs[kid], true)
			}
			var got *bool
			routeWithin(s, c, src, "120", func(ok bool) { got = &ok })
			w.Sched.Run()
			if got == nil {
				t.Fatal("done callback never fired")
			}
			if *got {
				t.Fatal("delivery impossible in this scenario")
			}
			if n := s.Stats().FailoverSwitches; n != 1 {
				t.Fatalf("FailoverSwitches = %d, want exactly 1 (one switch to the alternate path)", n)
			}
		})
	}
}

// TestRelayScansCountHeldKIDs checks what bestRelay counts: the KIDs the
// cell holds plus its members, not its free slots. The hand-built cell holds
// 4 of 12 KIDs and has no members; both successors are out of range, so each
// costs one relay search of 4 nodes.
func TestRelayScansCountHeldKIDs(t *testing.T) {
	w, s, c, src, _ := failoverCell(t)
	routeWithin(s, c, src, "120", func(bool) {})
	w.Sched.Run()
	if got := s.Stats().RelayScans; got != 8 {
		t.Fatalf("RelayScans = %d, want 8 (two searches over 4 held KIDs)", got)
	}
}

// TestFailoverDisabledCountsNoSwitches checks the ablated router records no
// failover switches at all.
func TestFailoverDisabledCountsNoSwitches(t *testing.T) {
	w, s, c, src, succs := failoverCell(t)
	s.cfg.DisableFailover = true
	w.SetFailed(succs["212"], true)
	var got *bool
	routeWithin(s, c, src, "120", func(ok bool) { got = &ok })
	w.Sched.Run()
	if got == nil || *got {
		t.Fatal("expected a drop")
	}
	if n := s.Stats().FailoverSwitches; n != 0 {
		t.Fatalf("FailoverSwitches = %d with failover disabled, want 0", n)
	}
}

// TestEntryPointTieBreak checks the deterministic tie-break: two overlay
// members equidistant from a plain sensor must resolve to the smaller node
// ID, not to map iteration order.
func TestEntryPointTieBreak(t *testing.T) {
	_, s := buildSystem(t, 21, 200, 0)
	sensors := 0
	for _, n := range s.w.Nodes() {
		if n.Kind == world.Sensor {
			sensors++
		}
	}
	// entryPoint must be a pure function of world state: repeated calls
	// (each re-iterating the cell maps) agree for every source.
	for _, n := range s.w.Nodes() {
		first, firstCell := s.entryPoint(n.ID)
		for i := 0; i < 10; i++ {
			again, againCell := s.entryPoint(n.ID)
			if again != first || againCell != firstCell {
				t.Fatalf("entryPoint(%d) unstable: %d vs %d", n.ID, first, again)
			}
		}
	}
	if sensors == 0 {
		t.Fatal("no sensors in scenario")
	}
}

// TestOverlayPartnersMatchStringOracle checks the per-graph partner table
// against a string oracle: successor then predecessor KID strings, mapped
// to holders, each holder once. Cells
// of K(2,3)…K(5,3) are hand-built fully held and then with every third KID
// free (the embedding's partial state); the order must match too. A warm
// call allocates nothing.
func TestOverlayPartnersMatchStringOracle(t *testing.T) {
	for d := 2; d <= 5; d++ {
		g, err := kautz.New(d, diameter)
		if err != nil {
			t.Fatal(err)
		}
		s := New(world.New(world.Config{Region: geo.Square(100), Seed: 1}), Config{Degree: d})
		s.graph, s.kids = g, g.Nodes()
		s.partners = partnerRanks(g, s.kids)
		c := s.blankCell()
		oracle := func(kid kautz.ID) []world.NodeID {
			var out []world.NodeID
			seen := map[world.NodeID]bool{}
			add := func(k kautz.ID) {
				if id, ok := c.Node(k); ok && !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
			for _, k := range g.Successors(kid) {
				add(k)
			}
			for _, k := range g.Predecessors(kid) {
				add(k)
			}
			return out
		}
		check := func(state string) {
			for r, kid := range s.kids {
				got := s.overlayPartners(c, r)
				if want := oracle(kid); !slices.Equal(got, want) {
					t.Fatalf("K(%d,3) %s: partners of %s = %v, oracle %v", d, state, kid, got, want)
				}
			}
		}
		for r := range c.holder {
			c.holder[r] = world.NodeID(1000 + 7*r)
		}
		check("fully held")
		allocs := testing.AllocsPerRun(10, func() {
			for r := range s.kids {
				s.overlayPartners(c, r)
			}
		})
		if allocs != 0 {
			t.Fatalf("K(%d,3): overlayPartners allocated %.0f times per sweep, want 0", d, allocs)
		}
		for r := range c.holder {
			if r%3 == 0 {
				c.holder[r] = world.NoNode
			}
		}
		check("every third KID free")
	}
}

// TestCheckInvariantsCatchesCorruptHolders corrupts a built cell's holder
// slots the ways the record could go wrong and expects the probe to name
// each: a node holding two KIDs, and a corner holding none.
func TestCheckInvariantsCatchesCorruptHolders(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(c *Cell)
	}{
		{"two KIDs", "holds KIDs", func(c *Cell) { c.holder[c.rankOf(c.Corners[0])] = holderOf(c, "010") }},
		{"corner without KID", "holds no KID", func(c *Cell) { c.holder[c.rankOf(c.Corners[1])] = world.NoNode }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, s := buildSystem(t, 12, 200, 0)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("fresh system: %v", err)
			}
			tc.corrupt(s.Cells()[0])
			if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
