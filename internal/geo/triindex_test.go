package geo

import (
	"math/rand"
	"testing"
)

// randomTris builds n random triangles inside a side×side square, mixing
// tiny and large ones so bucket occupancy varies.
func randomTris(rng *rand.Rand, n int, side float64) [][3]Point {
	tris := make([][3]Point, n)
	for i := range tris {
		base := Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		extent := 5 + rng.Float64()*side/4
		for v := 0; v < 3; v++ {
			tris[i][v] = Point{
				X: base.X + (rng.Float64()-0.5)*extent,
				Y: base.Y + (rng.Float64()-0.5)*extent,
			}
		}
	}
	return tris
}

// containingScan is the linear first-hit oracle Containing must reproduce.
func containingScan(tris [][3]Point, p Point) int {
	for i, t := range tris {
		if PointInTriangle(p, t[0], t[1], t[2]) {
			return i
		}
	}
	return -1
}

// nearestScan is the linear `d <= best` oracle NearestWithin must reproduce:
// the LAST triangle at the minimal distance within margin wins.
func nearestScan(tris [][3]Point, p Point, margin float64) int {
	best, bestDist := -1, margin
	for i, t := range tris {
		if d := DistToTriangle(p, t[0], t[1], t[2]); d <= bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func TestTriIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(120)
		side := 100 + rng.Float64()*900
		tris := randomTris(rng, n, side)
		idx := NewTriIndex(tris)
		margin := rng.Float64() * side / 8
		for q := 0; q < 200; q++ {
			// Sample inside, around, and far outside the region.
			p := Point{
				X: (rng.Float64()*1.4 - 0.2) * side,
				Y: (rng.Float64()*1.4 - 0.2) * side,
			}
			if got, want := idx.Containing(p), containingScan(tris, p); got != want {
				t.Fatalf("trial %d: Containing(%v) = %d, scan = %d", trial, p, got, want)
			}
			if got, want := idx.NearestWithin(p, margin), nearestScan(tris, p, margin); got != want {
				t.Fatalf("trial %d: NearestWithin(%v, %g) = %d, scan = %d", trial, p, margin, got, want)
			}
		}
	}
}

// Vertices and edges are exact-distance ties between adjacent triangles —
// the tie-break cases the index must resolve identically to the scans.
func TestTriIndexTieBreaks(t *testing.T) {
	// Two triangles sharing edge (50,0)-(50,100), plus a duplicate of the
	// second: a boundary point is inside all, an outside point is equidistant.
	tris := [][3]Point{
		{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 50, Y: 100}},
		{{X: 50, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 100}},
		{{X: 50, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 100}},
	}
	idx := NewTriIndex(tris)
	onEdge := Point{X: 50, Y: 50}
	if got := idx.Containing(onEdge); got != containingScan(tris, onEdge) || got != 0 {
		t.Fatalf("Containing on shared edge = %d, want first hit 0", got)
	}
	// Equidistant from triangles 1 and 2 (identical), outside all three:
	// the `d <= best` rule keeps the LAST.
	out := Point{X: 120, Y: 50}
	if got := idx.NearestWithin(out, 200); got != nearestScan(tris, out, 200) || got != 2 {
		t.Fatalf("NearestWithin tie = %d, want last-at-min 2", got)
	}
	if got := idx.NearestWithin(Point{X: 500, Y: 500}, 10); got != -1 {
		t.Fatalf("NearestWithin far outside = %d, want -1", got)
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d, want 3", idx.Len())
	}
	if idx.Checks() == 0 {
		t.Fatal("Checks did not count predicate evaluations")
	}
}

func TestTriIndexEmpty(t *testing.T) {
	idx := NewTriIndex(nil)
	if got := idx.Containing(Point{X: 1, Y: 1}); got != -1 {
		t.Fatalf("Containing on empty index = %d, want -1", got)
	}
	if got := idx.NearestWithin(Point{X: 1, Y: 1}, 10); got != -1 {
		t.Fatalf("NearestWithin on empty index = %d, want -1", got)
	}
}
