package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"refer/internal/geo"
)

// checkStream positions d skip outputs into seed's stream and compares the
// next n outputs with those of rand.NewSource(seed) itself.
func checkStream(t testing.TB, d *Draws, seed int64, skip uint64, n int) {
	t.Helper()
	ref := rand.NewSource(seed)
	for i := uint64(0); i < skip; i++ {
		ref.Int63()
	}
	rng := d.replay(seed, skip)
	for i := 0; i < n; i++ {
		if got, want := rng.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d from %d: output %d = %d, math/rand gives %d", seed, skip, skip+uint64(i)+1, got, want)
		}
	}
	if d.src.n != skip+uint64(n) {
		t.Fatalf("seed %d from %d: %d outputs counted after drawing %d", seed, skip, d.src.n, n)
	}
}

// TestLazyStreamMatchesMathRand checks the seed-computed window and the
// fallback past it against math/rand over seeds that exercise its seed
// normalisation, from start positions on both sides of rngTap.
func TestLazyStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, lehmerMod - 1, lehmerMod + 1}
	for k := int64(-4); k <= 4; k++ {
		seeds = append(seeds, k*lehmerMod)
	}
	for s := int64(-100); s <= 100; s++ {
		seeds = append(seeds, s)
	}
	rng := rand.New(rand.NewSource(36))
	for len(seeds) < 2400 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	d := NewDraws()
	for i, seed := range seeds {
		checkStream(t, d, seed, uint64(i%401), 700)
	}
}

// FuzzWaypointStream checks a stream positioned anywhere in its first 700
// outputs against math/rand.
func FuzzWaypointStream(f *testing.F) {
	for _, seed := range []int64{0, -1, lehmerMod, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(rngTap))
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16) {
		checkStream(t, NewDraws(), seed, uint64(skip%700), 300)
	})
}

// countingSeeds counts the reseeds of a Draws' fallback source.
type countingSeeds struct {
	rand.Source
	seeds int
}

func (c *countingSeeds) Seed(seed int64) {
	c.seeds++
	c.Source.Seed(seed)
}

// TestFreshMoverNeverReseedsInWindow pins the seeding work: a leg draws 3
// outputs, so a fresh mover's first 91 legs are computed from its seed. Its
// first 11 refills (88 legs) never reseed the fallback source; the 12th
// crosses output rngTap and reseeds it once.
func TestFreshMoverNeverReseedsInWindow(t *testing.T) {
	draws := NewDraws()
	fallback := &countingSeeds{Source: draws.src.fallback}
	draws.src.fallback = fallback
	movers := make([]*Waypoint, 64)
	ends := make([]time.Duration, len(movers))
	for i := range movers {
		movers[i] = NewWaypoint(geo.Square(500), geo.Point{X: 250, Y: 250}, 5, int64(i)*7919-100, draws)
	}
	step := func(legs int) {
		for l := 0; l < legs; l++ {
			for i, w := range movers {
				leg := w.Leg(ends[i])
				ends[i] = leg.Start + leg.Duration
			}
		}
	}
	step(11 * lookahead)
	for i, w := range movers {
		if w.drawn != 3*11*lookahead {
			t.Fatalf("mover %d: %d outputs after 11 refills, want %d", i, w.drawn, 3*11*lookahead)
		}
	}
	if fallback.seeds != 0 {
		t.Fatalf("%d reseeds within the first %d legs, want 0", fallback.seeds, 11*lookahead)
	}
	step(1)
	if fallback.seeds != len(movers) {
		t.Fatalf("%d reseeds on the refill crossing output %d, want one per mover (%d)", fallback.seeds, rngTap, len(movers))
	}
}

var legSink Leg

// BenchmarkWaypointFirstRefill measures a new mover and its first Leg: the
// first refill, which a world build pays once per mover.
func BenchmarkWaypointFirstRefill(b *testing.B) {
	region := geo.Square(500)
	draws := NewDraws()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		legSink = NewWaypoint(region, geo.Point{X: 250, Y: 250}, 5, int64(i), draws).Leg(0)
	}
}
