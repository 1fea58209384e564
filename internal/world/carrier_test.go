package world

import (
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/mobility"
)

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
		c := w.neighborCache(from)
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
		p, r := w.Position(from), w.Node(from).Range
		want := map[NodeID]bool{}
		for id := NodeID(0); id < 120; id++ {
			q := w.Position(id)
			if dx, dy := q.X-p.X, q.Y-p.Y; id != from && dx*dx+dy*dy <= r*r {
				want[id] = true
			}
		}
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
