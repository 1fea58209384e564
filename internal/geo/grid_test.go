package geo

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestGridNearestExactTie pins the documented tie rule: an exact distance
// tie resolves to the lowest index, even when the spiral visits the
// higher-index item first. The two points are 10 m on either side of the
// query, in different buckets, and the higher index sits in the bucket the
// ring scan reaches first.
func TestGridNearestExactTie(t *testing.T) {
	g := NewGrid(Square(100), 10)
	g.Insert(0, Point{X: 65, Y: 55}) // visited second by the ring scan
	g.Insert(1, Point{X: 45, Y: 55}) // visited first
	if got := g.Nearest(Point{X: 55, Y: 55}, -1); got != 0 {
		t.Fatalf("Nearest tie = %d, want lowest index 0", got)
	}
	// Excluding the winner hands the tie to the other point.
	if got := g.Nearest(Point{X: 55, Y: 55}, 0); got != 1 {
		t.Fatalf("Nearest tie with 0 excluded = %d, want 1", got)
	}
}

// TestGridNearestMatchesBruteForce checks the spiral search against a
// linear scan (with the same lowest-index tie rule) over random point sets,
// including query points outside the region.
func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	region := Square(300)
	for trial := 0; trial < 50; trial++ {
		g := NewGrid(region, 25)
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = region.RandomPoint(rng)
			g.Insert(i, pts[i])
		}
		for q := 0; q < 20; q++ {
			p := Point{X: rng.Float64()*400 - 50, Y: rng.Float64()*400 - 50}
			exclude := -1
			if q%3 == 0 {
				exclude = rng.Intn(n)
			}
			want, wantDist := -1, 0.0
			for i, pt := range pts {
				if i == exclude {
					continue
				}
				if d := p.Dist(pt); want == -1 || d < wantDist {
					want, wantDist = i, d
				}
			}
			if got := g.Nearest(p, exclude); got != want {
				t.Fatalf("trial %d: Nearest(%v, %d) = %d, want %d", trial, p, exclude, got, want)
			}
		}
	}
}

// TestGridResetReuseMatchesFresh is the reuse property test: Reset+Insert
// on a recycled grid must produce identical Within results — membership and
// order — to a freshly allocated grid, across random point sets.
func TestGridResetReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	region := Square(500)
	reused := NewGrid(region, 50)
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = region.RandomPoint(rng)
		}
		fresh := NewGrid(region, 50)
		reused.Reset()
		for i, p := range pts {
			fresh.Insert(i, p)
			reused.Insert(i, p)
		}
		for i, p := range pts {
			if reused.Position(i) != p {
				t.Fatalf("trial %d: Position(%d) = %v, want %v", trial, i, reused.Position(i), p)
			}
		}
		for q := 0; q < 10; q++ {
			p := region.RandomPoint(rng)
			radius := 20 + rng.Float64()*150
			a := fresh.Within(nil, p, radius, -1)
			b := reused.Within(nil, p, radius, -1)
			if len(a) != len(b) {
				t.Fatalf("trial %d: Within lengths %d vs %d", trial, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: Within[%d] = %d (fresh) vs %d (reused)", trial, i, a[i], b[i])
				}
			}
		}
	}
}

// TestGridCellKeyOrdersLikeWithin checks the CellKey contract: sorting the
// items of a Within result by (CellKey, index) leaves it unchanged, because
// Within already returns bucket-major, insertion-ordered results.
func TestGridCellKeyOrdersLikeWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	region := Square(500)
	g := NewGrid(region, 50)
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = region.RandomPoint(rng)
		g.Insert(i, pts[i])
	}
	for q := 0; q < 25; q++ {
		p := region.RandomPoint(rng)
		got := g.Within(nil, p, 120, -1)
		resorted := append([]int(nil), got...)
		sort.SliceStable(resorted, func(a, b int) bool {
			ka, kb := g.CellKey(pts[resorted[a]]), g.CellKey(pts[resorted[b]])
			if ka != kb {
				return ka < kb
			}
			return resorted[a] < resorted[b]
		})
		for i := range got {
			if got[i] != resorted[i] {
				t.Fatalf("query %d: Within order %v != (CellKey, index) order %v", q, got, resorted)
			}
		}
	}
}

// TestGridSplitPartitionsWithin pins the split query against Within: walking
// Within(outer) and sending each item to inner when it lies within inner of
// the query point, else to band, reproduces Split's two lists element for
// element and in order, and inner holds exactly the registered items within
// inner, by brute force. A negative inner puts everything in band.
func TestGridSplitPartitionsWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	region := Square(500)
	for trial := 0; trial < 40; trial++ {
		g := NewGrid(region, 50)
		n := 1 + rng.Intn(150)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64()*540 - 20, Y: rng.Float64()*540 - 20}
			g.Insert(i, pts[i])
		}
		for q := 0; q < 20; q++ {
			p := region.RandomPoint(rng)
			outer := 10 + rng.Float64()*250
			inner := outer - rng.Float64()*30
			if q%5 == 0 {
				inner = -rng.Float64()
			}
			exclude := -1
			if q%3 == 0 {
				exclude = rng.Intn(n)
			}
			in, band := g.Split(nil, nil, p, inner, outer, exclude)
			var wantIn, wantBand []int
			for _, i := range g.Within(nil, p, outer, exclude) {
				if dx, dy := pts[i].X-p.X, pts[i].Y-p.Y; inner >= 0 && dx*dx+dy*dy <= inner*inner {
					wantIn = append(wantIn, i)
				} else {
					wantBand = append(wantBand, i)
				}
			}
			if !slices.Equal(in, wantIn) || !slices.Equal(band, wantBand) {
				t.Fatalf("trial %d query %d: Split = %v | %v, Within(outer) partitions into %v | %v", trial, q, in, band, wantIn, wantBand)
			}
			brute := 0
			for i, pt := range pts {
				if dx, dy := pt.X-p.X, pt.Y-p.Y; i != exclude && inner >= 0 && dx*dx+dy*dy <= inner*inner {
					brute++
				}
			}
			if len(in) != brute {
				t.Fatalf("trial %d query %d: inner holds %d items, %d lie within %v", trial, q, len(in), brute, inner)
			}
		}
	}
}
