package mobility

import (
	"math/rand"
	"testing"
	"time"

	"refer/internal/geo"
)

func TestStatic(t *testing.T) {
	p := geo.Point{X: 10, Y: 20}
	s := Static{P: p}
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		if got := s.At(at); got != p {
			t.Fatalf("Static.At(%v) = %v, want %v", at, got, p)
		}
	}
}

func TestWaypointStartsAtStart(t *testing.T) {
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(1))
	start := geo.Point{X: 100, Y: 100}
	w := NewWaypoint(region, start, 3, rng.Int63(), NewDraws())
	if got := w.At(0); got != start {
		t.Fatalf("At(0) = %v, want %v", got, start)
	}
}

func TestWaypointStaysInRegion(t *testing.T) {
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(2))
	w := NewWaypoint(region, region.RandomPoint(rng), 5, rng.Int63(), NewDraws())
	for s := 0; s <= 2000; s++ {
		p := w.At(time.Duration(s) * 500 * time.Millisecond)
		if !region.Contains(p) {
			t.Fatalf("position %v at t=%ds outside region", p, s/2)
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(3))
	const maxSpeed = 3.0
	w := NewWaypoint(region, region.RandomPoint(rng), maxSpeed, rng.Int63(), NewDraws())
	const dt = 100 * time.Millisecond
	prev := w.At(0)
	for i := 1; i < 20000; i++ {
		now := w.At(time.Duration(i) * dt)
		moved := prev.Dist(now)
		if moved > maxSpeed*dt.Seconds()+1e-6 {
			t.Fatalf("step %d: moved %.4f m in %v (max %.4f)", i, moved, dt, maxSpeed*dt.Seconds())
		}
		prev = now
	}
}

func TestWaypointDeterministic(t *testing.T) {
	region := geo.Square(500)
	// Two movers on one seed and one scratch generator, sampled in turn.
	draws := NewDraws()
	mk := func() *Waypoint {
		return NewWaypoint(region, geo.Point{X: 250, Y: 250}, 2, 42, draws)
	}
	w1, w2 := mk(), mk()
	for s := 0; s < 500; s++ {
		at := time.Duration(s) * time.Second
		if p1, p2 := w1.At(at), w2.At(at); p1 != p2 {
			t.Fatalf("t=%v: %v != %v", at, p1, p2)
		}
	}
}

func TestWaypointZeroSpeedIsStatic(t *testing.T) {
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(4))
	start := geo.Point{X: 50, Y: 60}
	w := NewWaypoint(region, start, 0, rng.Int63(), NewDraws())
	for s := 0; s < 100; s++ {
		if got := w.At(time.Duration(s) * time.Second); got != start {
			t.Fatalf("zero-speed node moved to %v", got)
		}
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(5))
	start := geo.Point{X: 250, Y: 250}
	w := NewWaypoint(region, start, 3, rng.Int63(), NewDraws())
	moved := false
	for s := 1; s < 300; s++ {
		if w.At(time.Duration(s)*time.Second) != start {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("waypoint node never moved in 300 s at up to 3 m/s")
	}
}

func TestWaypointLongHorizonTrimming(t *testing.T) {
	// A long run crosses hundreds of refills, each replaying the stream
	// further in; positions must remain in-region.
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(6))
	w := NewWaypoint(region, region.RandomPoint(rng), 5, rng.Int63(), NewDraws())
	for s := 0; s < 100000; s += 7 {
		p := w.At(time.Duration(s) * time.Second)
		if !region.Contains(p) {
			t.Fatalf("t=%ds: %v outside region", s, p)
		}
	}
}

func TestWaypointContinuityAcrossLegs(t *testing.T) {
	// Positions sampled densely must be continuous: no teleporting at
	// waypoint boundaries.
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(7))
	const maxSpeed = 4.0
	w := NewWaypoint(region, region.RandomPoint(rng), maxSpeed, rng.Int63(), NewDraws())
	const dt = 10 * time.Millisecond
	prev := w.At(0)
	for i := 1; i < 50000; i++ {
		now := w.At(time.Duration(i) * dt)
		if prev.Dist(now) > maxSpeed*dt.Seconds()+1e-6 {
			t.Fatalf("discontinuity at step %d: %v → %v", i, prev, now)
		}
		prev = now
	}
}

func TestWaypointNearZeroSpeedDwells(t *testing.T) {
	// A cap below the minimum leg speed degenerates to dwelling in place.
	region := geo.Square(500)
	rng := rand.New(rand.NewSource(8))
	start := geo.Point{X: 100, Y: 100}
	w := NewWaypoint(region, start, 1e-4, rng.Int63(), NewDraws())
	for s := 0; s < 120; s += 7 {
		if got := w.At(time.Duration(s) * time.Second); got != start {
			t.Fatalf("near-zero-speed node moved to %v", got)
		}
	}
}
