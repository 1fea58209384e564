package world

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"refer/internal/geo"
	"refer/internal/mobility"
)

// TestPositionTableMatchesModel pins the position table against the models
// it caches: on a mobile world advanced through random event times, with
// neighbor rebuilds between the checks, every Position must be bit-identical
// to At on a second mover built from the same seed, which shares neither the
// table nor the world's movers.
func TestPositionTableMatchesModel(t *testing.T) {
	region := geo.Square(500)
	w := New(Config{Region: region, Seed: 31})
	rng := rand.New(rand.NewSource(31))
	draws, oracleDraws := mobility.NewDraws(), mobility.NewDraws()
	var oracle []mobility.Model
	add := func(r geo.Rect, start geo.Point, speed float64) {
		seed := rng.Int63()
		w.AddNode(Sensor, mobility.NewWaypoint(r, start, speed, seed, draws), 100, 0)
		oracle = append(oracle, mobility.NewWaypoint(r, start, speed, seed, oracleDraws))
	}
	for i := 0; i < 60; i++ {
		add(region, region.RandomPoint(rng), 0.5+9.5*rng.Float64())
	}
	// A 2 m square crossed at up to 5 m/s: legs of a fraction of a second,
	// so most events see a new one.
	corner := geo.Point{X: 250, Y: 250}
	add(geo.Rect{Min: corner, Max: geo.Point{X: 252, Y: 252}}, corner, 5)
	add(region, geo.Point{X: 20, Y: 20}, 1e-4) // dwells only
	for _, p := range []geo.Point{{X: 125, Y: 125}, {X: 375, Y: 375}} {
		w.AddNode(Actuator, mobility.Static{P: p}, 250, 0)
		oracle = append(oracle, mobility.Static{P: p})
	}

	queries := 0
	at := time.Duration(0)
	for step := 0; step < 400; step++ {
		at += time.Duration(rng.Int63n(int64(3 * time.Second)))
		if _, err := w.Sched.At(at, func() {
			for k := 0; k < 20; k++ {
				id := NodeID(rng.Intn(w.Len()))
				if k%4 == 0 {
					w.Neighbors(nil, id)
				}
				got, want := w.Position(id), oracle[id].At(w.Now())
				queries++
				if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
					t.Fatalf("t=%v: Position(%d) = %v, model %v", w.Now(), id, got, want)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Sched.Run()
	if st := w.Stats(); st.MobilityEvals == 0 || st.MobilityEvals >= uint64(queries) {
		t.Fatalf("%d leg fetches for %d position queries: the table is not caching", st.MobilityEvals, queries)
	}
}

// TestLinkWithinMatchesDist pins the squared-distance band against the
// square-root comparison it replaces, on points constructed at and around
// the range boundary: a few ulps either side of r along both axes and the
// diagonal, and at relative offsets inside, at and outside the band, near
// the origin and near 1000 m.
func TestLinkWithinMatchesDist(t *testing.T) {
	dirs := []geo.Point{{X: 1}, {Y: 1}, {X: -1}, {Y: -1}, {X: math.Sqrt2 / 2, Y: math.Sqrt2 / 2}, {X: -math.Sqrt2 / 2, Y: math.Sqrt2 / 2}}
	var inBand, near, far int
	check := func(p, q geo.Point, r float64) {
		t.Helper()
		want := p.Dist(q) <= r
		if got := linkWithin(p, q, r); got != want {
			t.Fatalf("linkWithin(%v, %v, %v) = %v, Dist %v <= r is %v", p, q, r, got, p.Dist(q), want)
		}
		dx, dy := q.X-p.X, q.Y-p.Y
		switch d2 := dx*dx + dy*dy; {
		case d2 >= r*r*(1-1e-9) && d2 <= r*r*(1+1e-9):
			inBand++
		case want:
			near++
		default:
			far++
		}
	}
	for _, r := range []float64{100, 250} {
		for _, c := range []float64{0, 1e-7, 3.5, 1000, 1000 - 1e-9, 999.75} {
			p := geo.Point{X: c, Y: c}
			for _, dir := range dirs {
				// Ulp steps either side of r.
				lo, hi := r, r
				for k := 0; k < 8; k++ {
					check(p, geo.Point{X: p.X + lo*dir.X, Y: p.Y + lo*dir.Y}, r)
					check(p, geo.Point{X: p.X + hi*dir.X, Y: p.Y + hi*dir.Y}, r)
					lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
				}
				// Relative offsets inside, on the edge of and beyond the band.
				for _, rel := range []float64{1e-12, 1e-10, 4.9e-10, 5e-10, 5.1e-10, 1e-9, 2e-9, 1e-6} {
					for _, d := range []float64{r * (1 - rel), r * (1 + rel)} {
						check(p, geo.Point{X: p.X + d*dir.X, Y: p.Y + d*dir.Y}, r)
					}
				}
			}
		}
	}
	if inBand == 0 || near == 0 || far == 0 {
		t.Fatalf("cases: %d in the band, %d accepted and %d rejected outside it; want all three", inBand, near, far)
	}
}

// FuzzLinkWithin checks linkWithin against p.Dist(q) <= r over the domain it
// documents: finite coordinates up to 1e100 in magnitude and ranges in
// [1e-100, 1e100], where no square overflows and r² never underflows.
func FuzzLinkWithin(f *testing.F) {
	f.Add(0.0, 0.0, 100.0, 0.0, 100.0)
	f.Add(1000.0, 1000.0, 1000.0+250*math.Sqrt2/2, 1000.0+250*math.Sqrt2/2, 250.0)
	f.Add(3.5, 3.5, 3.5, math.Nextafter(103.5, 0), 100.0)
	f.Add(-1e99, 1e99, 1e99, -1e99, 1e-100)
	f.Fuzz(func(t *testing.T, px, py, qx, qy, r float64) {
		for _, v := range []float64{px, py, qx, qy} {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				t.Skip()
			}
		}
		if !(r >= 1e-100 && r <= 1e100) {
			t.Skip()
		}
		p, q := geo.Point{X: px, Y: py}, geo.Point{X: qx, Y: qy}
		if got, want := linkWithin(p, q, r), p.Dist(q) <= r; got != want {
			t.Fatalf("linkWithin(%v, %v, %v) = %v, Dist %v", p, q, r, got, p.Dist(q))
		}
	})
}
