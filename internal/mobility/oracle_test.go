package mobility

import (
	"math"
	"math/rand"
	"runtime"
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
	legs     []Leg
}

func newRefMover(region geo.Rect, start geo.Point, maxSpeed float64, seed int64) *refMover {
	m := &refMover{region: region, maxSpeed: maxSpeed, rng: rand.New(rand.NewSource(seed))}
	m.legs = append(m.legs, Leg{From: start, To: start})
	return m
}

func (m *refMover) At(t time.Duration) geo.Point {
	last := &m.legs[len(m.legs)-1]
	for t >= last.Start+last.Duration {
		m.extend()
		last = &m.legs[len(m.legs)-1]
	}
	for i := len(m.legs) - 1; i >= 0; i-- {
		l := m.legs[i]
		if t >= l.Start {
			if l.Duration == 0 {
				return l.To
			}
			frac := float64(t-l.Start) / float64(l.Duration)
			return l.From.Lerp(l.To, frac)
		}
	}
	return m.legs[0].From
}

func (m *refMover) extend() {
	last := m.legs[len(m.legs)-1]
	at := last.To
	begin := last.Start + last.Duration
	if m.maxSpeed <= 0 {
		m.legs = append(m.legs, Leg{Start: begin, Duration: dwellTime, From: at, To: at})
		return
	}
	dest := m.region.RandomPoint(m.rng)
	speed := m.rng.Float64() * m.maxSpeed
	if speed < minLegSpeed {
		m.legs = append(m.legs, Leg{Start: begin, Duration: dwellTime, From: at, To: at})
		return
	}
	dist := at.Dist(dest)
	dur := time.Duration(dist / speed * float64(time.Second))
	if dur <= 0 {
		dur = time.Millisecond
	}
	m.legs = append(m.legs, Leg{Start: begin, Duration: dur, From: at, To: dest})
}

func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// campaignMover pairs a model under test with the reference mover of its
// seed and the times a campaign has queried it at.
type campaignMover struct {
	got      Model
	want     *refMover
	horizon  time.Duration // how far queries reach: several refills
	frontier time.Duration // the latest t queried
	last     time.Duration
}

// campaign runs 64 movers on one shared Draws (plus one Static) against
// reference movers that each own their generator, queried in a seeded random
// interleaving with forward, repeated and backward times across several
// refills; check compares one query. It then asserts the campaign exercised
// 1 ms legs, dwells and refills.
func campaign(t *testing.T, check func(step int, m *campaignMover)) {
	t.Helper()
	region := geo.Square(500)
	// A zero-area region whose only point is the start: every moving leg
	// has distance 0 and so lasts exactly 1 ms.
	pin := geo.Point{X: 200, Y: 300}
	pinned := geo.Rect{Min: pin, Max: pin}

	rng := rand.New(rand.NewSource(2024))
	draws := NewDraws()
	var movers []campaignMover
	add := func(r geo.Rect, start geo.Point, maxSpeed float64, horizon time.Duration) {
		seed := rng.Int63()
		movers = append(movers, campaignMover{
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
	// An actuator: the reference of a static point is a zero-speed mover.
	still := geo.Point{X: 40, Y: 40}
	movers = append(movers, campaignMover{got: Static{P: still}, want: newRefMover(region, still, 0, 1), horizon: time.Hour})

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
		check(step, m)
	}

	// The campaign must have exercised what it claims to.
	oneMs := 0
	for _, l := range movers[3].want.legs {
		if l.Duration == time.Millisecond {
			oneMs++
		}
	}
	if oneMs == 0 {
		t.Error("the pinned mover never drew a 1 ms leg")
	}
	dwells := 0
	for _, l := range movers[2].want.legs {
		if l.Duration == dwellTime && l.From == l.To {
			dwells++
		}
	}
	if dwells == 0 {
		t.Error("the crawling mover never drew a dwell")
	}
	refills := 0
	for i, m := range movers[:64] {
		n := (len(m.want.legs) - 1 + lookahead - 1) / lookahead
		if n < 2 {
			t.Errorf("mover %d crossed %d refills, want several", i, n)
		}
		refills += n
	}
	if refills < 4*64 {
		t.Errorf("%d refills over 64 movers, want several each", refills)
	}
}

// TestWaypointMatchesPrivateStream pins At: every position of the campaign
// must be bit-identical to the reference mover's.
func TestWaypointMatchesPrivateStream(t *testing.T) {
	campaign(t, func(step int, m *campaignMover) {
		if got, want := m.got.At(m.last), m.want.At(m.last); !samePoint(got, want) {
			t.Fatalf("step %d, t=%v: At = %v, reference %v", step, m.last, got, want)
		}
	})
}

// TestLegMatchesAt pins Leg against the same reference: the leg must contain
// the queried time, and interpolating it must give the reference position
// bit for bit.
func TestLegMatchesAt(t *testing.T) {
	campaign(t, func(step int, m *campaignMover) {
		l := m.got.Leg(m.last)
		if !l.Contains(m.last) {
			t.Fatalf("step %d: Leg(%v) = %+v does not contain it", step, m.last, l)
		}
		if got, want := l.At(m.last), m.want.At(m.last); !samePoint(got, want) {
			t.Fatalf("step %d, t=%v: Leg.At = %v, reference %v", step, m.last, got, want)
		}
	})
}

// TestWaypointAtAllocFree pins At's hot path, refills included, at zero
// allocations. It counts mallocs over the whole loop instead of averaging
// them per call, where one allocation per refill (one call in eight or so)
// would round down to zero. Each of the 8 movers crosses 11 refills inside
// its first rngTap outputs and at least 18 past them.
func TestWaypointAtAllocFree(t *testing.T) {
	region := geo.Square(500)
	draws := NewDraws()
	movers := make([]*Waypoint, 8)
	for i := range movers {
		movers[i] = NewWaypoint(region, geo.Point{X: 250, Y: 250}, 5, int64(9+i), draws)
	}
	var at time.Duration
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for done := false; !done; {
		at += time.Minute
		done = true
		for _, w := range movers {
			w.At(at)
			done = done && w.drawn >= 30*3*lookahead
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("At allocated %d times over %d refills, want 0", n, len(movers)*30)
	}
}
