package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"refer/internal/geo"
)

// refMover is the random-waypoint model as it was before movers shared a
// scratch generator: a private rand.Rand and a leg list that only grows (no
// trimming, so any t can be answered by the backward scan).
type refMover struct {
	region   geo.Rect
	maxSpeed float64
	rng      *rand.Rand
	legs     []leg
}

func newRefMover(region geo.Rect, start geo.Point, maxSpeed float64, seed int64) *refMover {
	m := &refMover{region: region, maxSpeed: maxSpeed, rng: rand.New(rand.NewSource(seed))}
	m.legs = append(m.legs, leg{start: 0, from: start, to: start, duration: 0})
	return m
}

func (m *refMover) At(t time.Duration) geo.Point {
	last := &m.legs[len(m.legs)-1]
	for t >= last.start+last.duration {
		m.extend()
		last = &m.legs[len(m.legs)-1]
	}
	for i := len(m.legs) - 1; i >= 0; i-- {
		l := m.legs[i]
		if t >= l.start {
			if l.duration == 0 {
				return l.to
			}
			frac := float64(t-l.start) / float64(l.duration)
			return l.from.Lerp(l.to, frac)
		}
	}
	return m.legs[0].from
}

func (m *refMover) extend() {
	last := m.legs[len(m.legs)-1]
	at := last.to
	begin := last.start + last.duration
	if m.maxSpeed <= 0 {
		m.legs = append(m.legs, leg{start: begin, from: at, to: at, duration: dwellTime})
		return
	}
	dest := m.region.RandomPoint(m.rng)
	speed := m.rng.Float64() * m.maxSpeed
	if speed < minLegSpeed {
		m.legs = append(m.legs, leg{start: begin, from: at, to: at, duration: dwellTime})
		return
	}
	dist := at.Dist(dest)
	dur := time.Duration(dist / speed * float64(time.Second))
	if dur <= 0 {
		dur = time.Millisecond
	}
	m.legs = append(m.legs, leg{start: begin, from: at, to: dest, duration: dur})
}

func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestWaypointMatchesPrivateStream runs 64 movers on one shared Draws against
// reference movers that each own their generator, queried in a seeded random
// interleaving with forward, repeated and backward times across several
// refills. Every position must be bit-identical.
func TestWaypointMatchesPrivateStream(t *testing.T) {
	region := geo.Square(500)
	// A zero-area region whose only point is the start: every moving leg
	// has distance 0 and so lasts exactly 1 ms.
	pin := geo.Point{X: 200, Y: 300}
	pinned := geo.Rect{Min: pin, Max: pin}

	type pair struct {
		got      *Waypoint
		want     *refMover
		horizon  time.Duration // how far queries reach: several refills
		frontier time.Duration // the latest t queried
		last     time.Duration
	}
	rng := rand.New(rand.NewSource(2024))
	draws := NewDraws()
	var movers []pair
	add := func(r geo.Rect, start geo.Point, maxSpeed float64, horizon time.Duration) {
		seed := rng.Int63()
		movers = append(movers, pair{
			got:     NewWaypoint(r, start, maxSpeed, seed, draws),
			want:    newRefMover(r, start, maxSpeed, seed),
			horizon: horizon,
		})
	}
	add(region, geo.Point{X: 10, Y: 10}, 0, time.Hour)    // static: dwell legs, no draws
	add(region, geo.Point{X: 20, Y: 20}, 1e-4, time.Hour) // every speed draw below minLegSpeed
	// Half dwells, half crawls, in a 10 cm square so a crawl ends in seconds.
	crawl := geo.Rect{Min: geo.Point{X: 30, Y: 30}, Max: geo.Point{X: 30.1, Y: 30.1}}
	add(crawl, geo.Point{X: 30, Y: 30}, 2e-3, time.Hour)
	add(pinned, pin, 5, 100*time.Millisecond) // 1 ms legs
	for len(movers) < 64 {
		add(region, region.RandomPoint(rng), 0.5+9.5*rng.Float64(), 24*time.Hour)
	}

	for step := 0; step < 64000; step++ {
		m := &movers[rng.Intn(len(movers))]
		switch r := rng.Float64(); {
		case r < 0.6: // forward, past every earlier query
			m.frontier += time.Duration(rng.Int63n(int64(m.horizon) / 300))
			m.last = m.frontier
		case r < 0.8: // repeated
		default: // backward
			m.last = time.Duration(rng.Int63n(int64(m.frontier) + 1))
		}
		if got, want := m.got.At(m.last), m.want.At(m.last); !samePoint(got, want) {
			t.Fatalf("step %d, mover %d, t=%v: At = %v, reference %v", step, m.got.seed, m.last, got, want)
		}
	}

	// The campaign must have exercised what it claims to.
	oneMs := 0
	for _, l := range movers[3].want.legs {
		if l.duration == time.Millisecond {
			oneMs++
		}
	}
	if oneMs == 0 {
		t.Error("the pinned mover never drew a 1 ms leg")
	}
	dwells := 0
	for _, l := range movers[2].want.legs {
		if l.duration == dwellTime && l.from == l.to {
			dwells++
		}
	}
	if dwells == 0 {
		t.Error("the crawling mover never drew a dwell")
	}
	refills := 0
	for i, m := range movers {
		n := (len(m.want.legs) - 1 + lookahead - 1) / lookahead
		if n < 2 {
			t.Errorf("mover %d crossed %d refills, want several", i, n)
		}
		refills += n
	}
	if refills < 4*len(movers) {
		t.Errorf("%d refills over %d movers, want several each", refills, len(movers))
	}
}

// TestWaypointAtAllocFree pins At's hot path, refills included, at zero
// allocations.
func TestWaypointAtAllocFree(t *testing.T) {
	region := geo.Square(500)
	w := NewWaypoint(region, geo.Point{X: 250, Y: 250}, 5, 9, NewDraws())
	var at time.Duration
	w.At(at)
	allocs := testing.AllocsPerRun(5000, func() {
		at += time.Minute
		w.At(at)
	})
	if allocs != 0 {
		t.Fatalf("At allocates %.2f times per call, want 0", allocs)
	}
	if w.drawn <= 3*lookahead {
		t.Fatalf("only %d draws consumed: the loop never crossed a refill", w.drawn)
	}
}
