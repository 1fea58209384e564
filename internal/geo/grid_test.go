package geo

import (
	"math"
	"math/rand"
	"runtime"
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

// splitOracle answers Split by brute force over pts: every index but
// exclude whose squared distance from p is within outer², sorted by cell
// (row-major, the cell of a point outside region being the nearest edge
// cell) and by index within a cell, then partitioned at inner².
func splitOracle(region Rect, cell float64, pts []Point, p Point, inner, outer float64, exclude int) (in, band []int) {
	cols := int(math.Ceil(region.Width()/cell)) + 1
	rows := int(math.Ceil(region.Height()/cell)) + 1
	axis := func(v, lo float64, n int) int {
		return int(math.Min(math.Max(math.Floor((v-lo)/cell), 0), float64(n-1)))
	}
	cellOf := func(q Point) int {
		return axis(q.Y, region.Min.Y, rows)*cols + axis(q.X, region.Min.X, cols)
	}
	var hits []int
	for i, q := range pts {
		if dx, dy := q.X-p.X, q.Y-p.Y; i != exclude && dx*dx+dy*dy <= outer*outer {
			hits = append(hits, i)
		}
	}
	slices.SortFunc(hits, func(a, b int) int {
		if ca, cb := cellOf(pts[a]), cellOf(pts[b]); ca != cb {
			return ca - cb
		}
		return a - b
	})
	for _, i := range hits {
		if dx, dy := pts[i].X-p.X, pts[i].Y-p.Y; inner >= 0 && dx*dx+dy*dy <= inner*inner {
			in = append(in, i)
		} else {
			band = append(band, i)
		}
	}
	return in, band
}

// FuzzGridSplit checks Split and Within, set and order, against the
// brute-force oracle on one grid reused over three rounds of growing and
// shrinking populations, each inserted in a shuffled order. Points are drawn
// inside the region, just outside it, far outside it, exactly on cell
// boundaries and exactly outer from a query centre; centres are the fuzzed
// point, a registered point, a point outside the region and one with a
// cell corner about outer away on a diagonal; inner may be
// negative and exclude may name an item.
func FuzzGridSplit(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(90), uint8(10), 25.0, 100.0, 80.0, 60.0, 110.0, int16(3))
	f.Add(int64(2), uint8(200), uint8(5), uint8(255), 50.0, -30.0, 400.0, -1.0, 75.0, int16(-1))
	f.Add(int64(3), uint8(1), uint8(0), uint8(70), 7.5, 1e4, -1e4, 0.0, 0.0, int16(0))
	f.Add(int64(4), uint8(120), uint8(120), uint8(60), 200.0, 250.0, 250.0, 300.0, 500.0, int16(119))
	f.Add(int64(5), uint8(70), uint8(30), uint8(90), 37.5, 1e4, -1e4, 30.0, 10.0, int16(0))
	f.Fuzz(func(t *testing.T, seed int64, n0, n1, n2 uint8, cell, qx, qy, inner, outer float64, exclude int16) {
		for _, v := range []float64{cell, qx, qy, inner, outer} {
			if math.IsNaN(v) || math.Abs(v) > 1e5 {
				t.Skip()
			}
		}
		cell = 1 + math.Mod(math.Abs(cell), 300)
		outer = math.Abs(outer)
		region := Rect{Min: Point{X: -37.5, Y: 12}, Max: Point{X: 463, Y: 301}}
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(region, cell)
		var in, band, within []int
		for _, n := range []int{int(n0), int(n1), int(n2)} {
			q := Point{X: qx, Y: qy}
			pts := make([]Point, n)
			for i := range pts {
				switch rng.Intn(6) {
				case 0:
					pts[i] = region.RandomPoint(rng)
				case 1: // up to two cells outside the region
					pts[i] = Point{X: region.Min.X - 2*cell + rng.Float64()*(region.Width()+4*cell),
						Y: region.Min.Y - 2*cell + rng.Float64()*(region.Height()+4*cell)}
				case 2: // far outside, clamped into an edge cell
					pts[i] = Point{X: (rng.Float64() - 0.5) * 1e4, Y: (rng.Float64() - 0.5) * 1e4}
				case 3: // on a cell corner
					pts[i] = Point{X: region.Min.X + float64(rng.Intn(8))*cell, Y: region.Min.Y + float64(rng.Intn(8))*cell}
				default: // exactly outer from the query centre, along an axis or not
					d := []Point{{X: outer}, {X: -outer}, {Y: outer}, {Y: -outer}, {X: 0.6 * outer, Y: -0.8 * outer}}[rng.Intn(5)]
					pts[i] = Point{X: q.X + d.X, Y: q.Y + d.Y}
				}
			}
			g.Reset()
			for _, i := range rng.Perm(n) {
				g.Insert(i, pts[i])
			}
			// The last centre puts a cell corner about outer away on a
			// diagonal, where an unpadded chord can fall short by rounding.
			corner := Point{X: region.Min.X + float64(rng.Intn(8))*cell, Y: region.Min.Y + float64(rng.Intn(8))*cell}
			centres := []Point{q, {X: region.Max.X + 3*cell, Y: region.Min.Y - outer/2},
				{X: corner.X - 0.6*outer, Y: corner.Y - 0.8*outer}}
			if n > 0 {
				centres = append(centres, pts[rng.Intn(n)])
			}
			for _, p := range centres {
				wantIn, wantBand := splitOracle(region, cell, pts, p, inner, outer, int(exclude))
				in, band = g.Split(in[:0], band[:0], p, inner, outer, int(exclude))
				if !slices.Equal(in, wantIn) || !slices.Equal(band, wantBand) {
					t.Fatalf("n=%d cell=%v Split(%v, %v, %v, %d) = %v | %v, want %v | %v",
						n, cell, p, inner, outer, exclude, in, band, wantIn, wantBand)
				}
				_, wantWithin := splitOracle(region, cell, pts, p, -1, outer, int(exclude))
				if within = g.Within(within[:0], p, outer, int(exclude)); !slices.Equal(within, wantWithin) {
					t.Fatalf("n=%d cell=%v Within(%v, %v, %d) = %v, want %v", n, cell, p, outer, exclude, within, wantWithin)
				}
			}
		}
	})
}

// TestGridRebuildAllocFree pins the grid's buffer reuse: on a grid sized by
// Grow, the first Reset, Inserts and queries allocate only the three sized
// buffers (positions, cells, entries), and every later round of the same
// size allocates nothing.
func TestGridRebuildAllocFree(t *testing.T) {
	const n = 2000
	region := Square(1000)
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64()*1100 - 50, Y: rng.Float64()*1100 - 50}
	}
	in, band := make([]int, 0, n), make([]int, 0, n)
	g := NewGrid(region, 25)
	round := func() {
		g.Reset()
		for i, p := range pts {
			g.Insert(i, p)
		}
		for _, p := range pts[:50] {
			in, band = g.Split(in[:0], band[:0], p, 80, 100, -1)
		}
		in = g.Within(in[:0], pts[0], 150, 0)
	}
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	before := mallocs()
	g.Grow(n)
	round()
	if got := mallocs() - before; got != 3 {
		t.Errorf("Grow and the first build allocate %d times, want 3", got)
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("a warm rebuild and its queries allocate %.1f times, want 0", avg)
	}
	// Shuffle positions so every round re-sorts different cells.
	for k := 0; k < 3; k++ {
		rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		if avg := testing.AllocsPerRun(5, round); avg != 0 {
			t.Errorf("a rebuild over moved items allocates %.1f times, want 0", avg)
		}
	}
}
