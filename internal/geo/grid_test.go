package geo

import (
	"math/rand"
	"slices"
	"testing"
)

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
