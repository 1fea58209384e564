package world

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/mobility"
)

// gridOf returns the world's production spatial layer.
func gridOf(w *World) *gridSpace { return w.space.(*gridSpace) }

// noJitterWorld builds a deterministic-delay world for timing assertions.
func noJitterWorld(positions []geo.Point, sensorRange float64) *World {
	w := New(Config{
		Region:    geo.Square(500),
		Seed:      1,
		HopDelay:  2 * time.Millisecond,
		HopJitter: 0,
	})
	for _, p := range positions {
		w.AddNode(Sensor, mobility.Static{P: p}, sensorRange, 0)
	}
	return w
}

func TestCarrierSenseDefersNeighbors(t *testing.T) {
	// Nodes 0 and 1 are neighbors; node 0's transmission to 2 must defer
	// node 1's own transmission to 3.
	w := noJitterWorld([]geo.Point{
		{X: 0, Y: 0},
		{X: 50, Y: 0},
		{X: 0, Y: 50},
		{X: 50, Y: 50},
	}, 100)
	var at0, at1 time.Duration
	w.Send(0, 2, energy.Communication, func(Outcome) { at0 = w.Now() })
	w.Send(1, 3, energy.Communication, func(Outcome) { at1 = w.Now() })
	w.Sched.Run()
	if at0 != 2*time.Millisecond {
		t.Fatalf("first delivery at %v", at0)
	}
	if at1 != 4*time.Millisecond {
		t.Fatalf("deferred delivery at %v, want 4ms (carrier sense)", at1)
	}
}

func TestCarrierSenseDoesNotDeferFarNodes(t *testing.T) {
	// Nodes far outside the sender's range transmit concurrently.
	w := noJitterWorld([]geo.Point{
		{X: 0, Y: 0},
		{X: 50, Y: 0},
		{X: 400, Y: 400},
		{X: 450, Y: 400},
	}, 100)
	var atNear, atFar time.Duration
	w.Send(0, 1, energy.Communication, func(Outcome) { atNear = w.Now() })
	w.Send(2, 3, energy.Communication, func(Outcome) { atFar = w.Now() })
	w.Sched.Run()
	if atNear != 2*time.Millisecond || atFar != 2*time.Millisecond {
		t.Fatalf("deliveries at %v and %v, want both at 2ms (spatial reuse)", atNear, atFar)
	}
}

func TestSymmetricLinks(t *testing.T) {
	// An actuator (range 250) and a sensor (range 100) at 150 m share no
	// usable link in either direction — unicast needs the ack path.
	w := New(Config{Region: geo.Square(500), Seed: 1, HopJitter: 0})
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 0, Y: 0}}, 250, 0)
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 150, Y: 0}}, 100, 0)
	if w.LinkRange(0, 1) != 100 {
		t.Fatalf("LinkRange = %f, want 100", w.LinkRange(0, 1))
	}
	if w.InRange(0, 1) || w.InRange(1, 0) {
		t.Fatal("150 m actuator-sensor pair should be out of link range")
	}
	var out Outcome
	w.Send(0, 1, energy.Communication, func(o Outcome) { out = o })
	w.Sched.Run()
	if out != OutOfRange {
		t.Fatalf("outcome = %v, want out-of-range", out)
	}
	// Two actuators at 200 m do have a link.
	w2 := New(Config{Region: geo.Square(500), Seed: 1})
	w2.AddNode(Actuator, mobility.Static{P: geo.Point{X: 0, Y: 0}}, 250, 0)
	w2.AddNode(Actuator, mobility.Static{P: geo.Point{X: 200, Y: 0}}, 250, 0)
	if !w2.InRange(0, 1) {
		t.Fatal("200 m actuator pair should be in range")
	}
}

func TestNeighborsRespectReceiverRange(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 1})
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 0, Y: 0}}, 250, 0)
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 150, Y: 0}}, 100, 0)   // too far for its own range
	w.AddNode(Sensor, mobility.Static{P: geo.Point{X: 80, Y: 0}}, 100, 0)    // linked
	w.AddNode(Actuator, mobility.Static{P: geo.Point{X: 240, Y: 0}}, 250, 0) // linked (both 250)
	got := w.Neighbors(nil, 0)
	want := map[NodeID]bool{2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want nodes 2 and 3", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected neighbor %d", id)
		}
	}
}

// TestRangeTestsAgreeAtTheBoundary pins one range test for every query: a
// 100 m sensor and a 250 m actuator placed where dx²+dy² and Dist round to
// opposite sides of 100 m. Send, InRange, both neighbor lists and both
// carrier-sense sets must agree with Dist <= range, on a cold cache and a
// filled one.
func TestRangeTestsAgreeAtTheBoundary(t *testing.T) {
	sensor := geo.Point{X: 250, Y: 100}
	for _, a := range []geo.Point{
		{X: 246.17352885078512, Y: 199.92676377499788}, // Dist <= 100 < √(dx²+dy²)
		{X: 232.9133653529119, Y: 1.4705784222959721},  // √(dx²+dy²) <= 100 < Dist
	} {
		w := New(Config{Region: geo.Square(500), Seed: 1, HopJitter: 0})
		w.AddNode(Sensor, mobility.Static{P: sensor}, 100, 0)
		w.AddNode(Actuator, mobility.Static{P: a}, 250, 0)
		linked := sensor.Dist(a) <= 100
		if w.InRange(0, 1) != linked || w.InRange(1, 0) != linked {
			t.Fatalf("actuator at %v: InRange %v/%v, Dist %v", a, w.InRange(0, 1), w.InRange(1, 0), sensor.Dist(a))
		}
		for pass := range 2 {
			for from := NodeID(0); from < 2; from++ {
				for _, n := range w.Nodes() {
					n.busyUntil = 0
				}
				end := w.acquireRadio(w.Node(from), time.Millisecond)
				if deferred, want := w.Node(1-from).busyUntil == end, sensor.Dist(a) <= w.Node(from).Range; deferred != want {
					t.Fatalf("actuator at %v, pass %d: node %d's carrier sense deferred its peer: %v, want %v", a, pass, from, deferred, want)
				}
				if got := len(w.Neighbors(nil, from)) == 1; got != linked {
					t.Fatalf("actuator at %v, pass %d: node %d lists its peer: %v, want %v", a, pass, from, got, linked)
				}
			}
		}
		var out Outcome
		w.Send(0, 1, energy.Communication, func(o Outcome) { out = o })
		w.Sched.Run()
		if (out == Delivered) != linked {
			t.Fatalf("actuator at %v: Send %v, want delivered %v", a, out, linked)
		}
	}
}

func TestFloodAirtimeSerializesInNeighborhood(t *testing.T) {
	// A flood across a clique occupies the shared medium for at least one
	// hop-delay per rebroadcast: a packet sent right after the flood must
	// queue behind all that airtime.
	positions := make([]geo.Point, 10)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i) * 5, Y: 0} // all within 100 m
	}
	w := noJitterWorld(positions, 100)
	w.Flood(0, 3, energy.Communication, nil, nil)
	var deliveredAt time.Duration
	// Send once the flood's rebroadcasts have claimed the medium.
	if _, err := w.Sched.At(3*time.Millisecond, func() {
		w.Send(1, 2, energy.Communication, func(Outcome) { deliveredAt = w.Now() })
	}); err != nil {
		t.Fatal(err)
	}
	w.Sched.Run()
	// 10 rebroadcasts × 2 ms serialized, then the unicast.
	if deliveredAt < 20*time.Millisecond {
		t.Fatalf("post-flood unicast delivered at %v, want ≥ 20ms (medium busy)", deliveredAt)
	}
}

// TestCarrierSetIsNeighborsPlusWide pins the carrier-sense set's storage: a
// node's cached neighbor list and its wide remainder are disjoint, together
// they are every node inside the owner's own range (failed ones included),
// and a transmission defers exactly those nodes.
func TestCarrierSetIsNeighborsPlusWide(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 3, HopJitter: 0})
	rng := w.Rand()
	for i := 0; i < 120; i++ {
		kind, r := Sensor, 100.0
		if i%10 == 0 {
			kind, r = Actuator, 250.0
		}
		w.AddNode(kind, mobility.Static{P: w.Config().Region.RandomPoint(rng)}, r, 0)
	}
	for id := NodeID(1); id < 120; id += 7 {
		w.SetFailed(id, true)
	}
	wideSeen := false
	for from := NodeID(0); from < 120; from++ {
		c := gridOf(w).fill(from)
		got := map[NodeID]bool{}
		for _, id := range c.nb {
			got[id] = true
		}
		if w.Node(from).Kind == Sensor && len(c.wide) > 0 {
			t.Fatalf("sensor %d has a wide remainder %v", from, c.wide)
		}
		for _, id := range c.wide {
			if got[id] {
				t.Fatalf("node %d: %d is in both nb and wide", from, id)
			}
			got[id] = true
			wideSeen = true
		}
		want := carrierSet(w, from)
		if len(got) != len(want) {
			t.Fatalf("node %d: nb+wide holds %d nodes, brute force finds %d", from, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("node %d: %d is within range but missing from nb+wide", from, id)
			}
		}
		for _, n := range w.Nodes() {
			n.busyUntil = 0
		}
		end := w.acquireRadio(w.Node(from), time.Millisecond)
		for _, n := range w.Nodes() {
			if deferred := n.busyUntil == end; deferred != (want[n.ID] || n.ID == from) {
				t.Fatalf("node %d transmitting: node %d deferred=%v, in carrier set=%v", from, n.ID, deferred, want[n.ID])
			}
		}
	}
	if !wideSeen {
		t.Fatal("no actuator had a wide remainder; the world does not test it")
	}
}

// drift moves in a straight line from from at t0 to to at t1 and pauses
// before and after: a mover whose position at t1 is placed to the bit.
type drift struct {
	from, to geo.Point
	t0, t1   time.Duration
}

func (d drift) At(t time.Duration) geo.Point { return d.Leg(t).At(t) }

func (d drift) Leg(t time.Duration) mobility.Leg {
	switch {
	case t < d.t0:
		return mobility.Leg{Duration: d.t0, From: d.from, To: d.from}
	case t < d.t1:
		return mobility.Leg{Start: d.t0, Duration: d.t1 - d.t0, From: d.from, To: d.to}
	}
	return mobility.Leg{Start: d.t1, Duration: math.MaxInt64 - d.t1, From: d.to, To: d.to}
}

func (d drift) MaxSpeed() float64 { return d.from.Dist(d.to) / (d.t1 - d.t0).Seconds() }

// scanWorld builds a mobile world whose grid was sampled dt before the
// clock: waypoint sensors and actuators moving at up to speed m/s, failed
// nodes, and drifters around two static senders (an actuator and a sensor)
// that end on, just inside and just outside their range circles — some
// across the circle from where the grid indexed them, some in the band the
// scan re-checks. No cache is filled.
func scanWorld(seed int64, speed float64, dt time.Duration) *World {
	const t0 = time.Second
	region := geo.Square(500)
	w := New(Config{Region: region, Seed: seed, HopJitter: 0})
	rng := rand.New(rand.NewSource(seed))
	draws := mobility.NewDraws()
	for i := 0; i < 100; i++ {
		kind, r := Sensor, 100.0
		if i%10 == 0 {
			kind, r = Actuator, 250.0
		}
		w.AddNode(kind, mobility.NewWaypoint(region, region.RandomPoint(rng), speed, rng.Int63(), draws), r, 0)
	}
	s := speed * dt.Seconds()
	for _, c := range []struct {
		kind   Kind
		r      float64
		center geo.Point
	}{{Actuator, 250, geo.Point{X: 250, Y: 250}}, {Sensor, 100, geo.Point{X: 120, Y: 380}}} {
		w.AddNode(c.kind, mobility.Static{P: c.center}, c.r, 0)
		r := c.r
		rings := [][2]float64{ // distance from the center when indexed, then now
			{r - 0.9*s, r + 0.05*s}, // out across the circle
			{r + 0.9*s, r - 0.05*s}, // in across it
			{r - s, r},              // onto it at full speed
			{r - s - 2*senseGuard, r - 2*senseGuard},
			{r - 0.5*s, r - 0.5*s},
			{r + 0.5*s, r + 0.5*s},
			{r + s, r + s},
			{r, r},
			{r * (1 - 1e-12), r * (1 - 1e-12)},
			{r * (1 + 1e-12), r * (1 + 1e-12)},
		}
		for k, d := range rings {
			a := 2*math.Pi*float64(k)/float64(len(rings)) + 0.3
			dir := geo.Point{X: math.Cos(a), Y: math.Sin(a)}
			at := func(d float64) geo.Point { return geo.Point{X: c.center.X + d*dir.X, Y: c.center.Y + d*dir.Y} }
			w.AddNode(Sensor, drift{from: at(d[0]), to: at(d[1]), t0: t0, t1: t0 + dt}, 100, 0)
		}
	}
	for id := NodeID(3); id < NodeID(w.Len()); id += 7 {
		w.SetFailed(id, true)
	}
	w.Sched.RunUntil(t0)
	gridOf(w).refreshGrid()
	w.Sched.RunUntil(t0 + dt)
	gridOf(w).refreshGrid() // rebuilds only past the staleness tolerance
	return w
}

// carrierSet is the carrier-sense set by brute force over exact positions:
// every other node inside from's own range, failed or not.
func carrierSet(w *World, from NodeID) map[NodeID]bool {
	p, r := w.Position(from), w.Node(from).Range
	want := map[NodeID]bool{}
	for id := NodeID(0); id < NodeID(w.Len()); id++ {
		if id != from && p.Dist(w.Position(id)) <= r {
			want[id] = true
		}
	}
	return want
}

// checkCarrierScan transmits once from every node of scanWorld, first with
// a cold cache (the grid scan) and then with a filled one (nb plus wide),
// and checks that each defers exactly the brute-force carrier set. It
// returns how many nodes the scans met whose indexed position was inside
// reach − senseGuard while their exact one was out of range, how many band
// candidates the scans deferred and spared, and how many filled caches had
// a wide remainder.
func checkCarrierScan(t *testing.T, seed int64, speed float64, dt time.Duration) (crossed, bandIn, bandOut, wide int) {
	t.Helper()
	w := scanWorld(seed, speed, dt)
	g := gridOf(w)
	now, slack := w.Now(), g.querySlack(w.Now())
	transmit := func(from NodeID, path string, want map[NodeID]bool) {
		t.Helper()
		for _, n := range w.Nodes() {
			n.busyUntil = 0
		}
		end := w.acquireRadio(w.Node(from), time.Millisecond)
		for _, n := range w.Nodes() {
			if deferred := n.busyUntil == end; deferred != (want[n.ID] || n.ID == from) {
				t.Fatalf("seed %d speed %v dt %v, %s: node %d transmitting deferred node %d: %v, in carrier set: %v",
					seed, speed, dt, path, from, n.ID, deferred, want[n.ID])
			}
		}
	}
	for from := NodeID(0); from < NodeID(w.Len()); from++ {
		if g.current(&g.caches[from], now) {
			t.Fatalf("node %d's cache is warm before the scan", from)
		}
		want := carrierSet(w, from)
		rebuilds := w.stats.NeighborRebuilds
		transmit(from, "scan", want)
		if w.stats.NeighborRebuilds != rebuilds {
			t.Fatalf("carrier sense for node %d filled its cache", from)
		}
		p, r := w.Position(from), w.Node(from).Range
		for id := NodeID(0); id < NodeID(w.Len()); id++ {
			if id == from {
				continue
			}
			d := p.Dist(g.grid.Position(int(id)))
			switch {
			case d <= r-senseGuard && !want[id]:
				crossed++
			case d > r-slack-senseGuard && d <= r+slack && want[id]:
				bandIn++
			case d > r-slack-senseGuard && d <= r+slack:
				bandOut++
			}
		}
	}
	for from := NodeID(0); from < NodeID(w.Len()); from++ {
		if len(g.fill(from).wide) > 0 {
			wide++
		}
		transmit(from, "cached", carrierSet(w, from))
	}
	return crossed, bandIn, bandOut, wide
}

// TestCarrierScanMatchesBruteForce pins carrier sense on a cold cache: on a
// mobile world whose grid is 2 virtual seconds stale (slack 8 m), the
// split-query scan defers exactly the nodes inside the sender's range,
// including failed nodes, sensors beyond their own range around actuators,
// and movers that crossed the range circle since the grid indexed them.
func TestCarrierScanMatchesBruteForce(t *testing.T) {
	crossed, bandIn, bandOut, wide := checkCarrierScan(t, 5, 4, 2*time.Second)
	if crossed == 0 || bandIn == 0 || bandOut == 0 || wide == 0 {
		t.Fatalf("%d nodes crossed out of range, %d band candidates in, %d out, %d wide remainders: want all four",
			crossed, bandIn, bandOut, wide)
	}
}

// FuzzCarrierScan runs the same check over seeds, speeds up to 50 m/s and
// grid ages up to 10 virtual seconds, past the staleness epoch included
// (the grid then rebuilds and the slack is zero).
func FuzzCarrierScan(f *testing.F) {
	f.Add(int64(5), 4.0, int64(2*time.Second))
	f.Add(int64(1), 0.0, int64(time.Second))
	f.Add(int64(2), 5.0, int64(time.Nanosecond))
	f.Add(int64(3), 50.0, int64(5*time.Second))
	f.Fuzz(func(t *testing.T, seed int64, speed float64, dt int64) {
		if !(speed >= 0 && speed <= 50) || dt <= 0 || dt > int64(10*time.Second) {
			t.Skip()
		}
		checkCarrierScan(t, seed, speed, time.Duration(dt))
	})
}

// TestTransmissionsFillOnce pins the fill-before-acquire order on a mobile
// world: a Broadcast, and each rebroadcast of a flood, costs its node exactly
// one neighbor fill and one cache hit — the fill for the receiver list and
// the hit for carrier sense. Fetching the list after acquiring the radio
// would scan the grid and then fill, with no hit.
func TestTransmissionsFillOnce(t *testing.T) {
	region := geo.Square(300)
	w := New(Config{Region: region, Seed: 6})
	rng := rand.New(rand.NewSource(6))
	draws := mobility.NewDraws()
	for i := 0; i < 80; i++ {
		w.AddNode(Sensor, mobility.NewWaypoint(region, region.RandomPoint(rng), 5, rng.Int63(), draws), 100, 0)
	}
	w.SetFailed(7, true)
	check := func(what string, transmitters int, before Stats) {
		t.Helper()
		got := w.Stats()
		if fills, hits := got.NeighborRebuilds-before.NeighborRebuilds, got.NeighborHits-before.NeighborHits; fills != uint64(transmitters) || hits != uint64(transmitters) {
			t.Fatalf("%s: %d transmitting nodes cost %d fills and %d hits, want one of each per node", what, transmitters, fills, hits)
		}
	}
	for k := 0; k < 5; k++ {
		w.Sched.RunUntil(w.Now() + time.Second)
		before := w.Stats()
		if w.Broadcast(NodeID(k*11), energy.Communication) == 0 {
			t.Fatalf("broadcast from %d reached nobody", k*11)
		}
		check("broadcast", 1, before)
	}
	w.Sched.RunUntil(w.Now() + time.Second)
	before, visits := w.Stats(), 0
	w.Flood(0, 64, energy.Construction, func(NodeID, NodeID) bool { visits++; return true }, nil)
	w.Sched.Run()
	if visits < 40 {
		t.Fatalf("flood reached %d nodes; the check needs a real flood", visits)
	}
	check("flood", 1+visits, before)
}
