package geo

import "math"

// Grid is a spatial hash over a rectangular region that answers "which
// items lie within range ρ of point p" in time proportional to the local
// density rather than the population.
//
// The grid is counting-sorted: one entry array holds every item, its
// position inline, ordered by cell (row-major) and by index within a cell,
// and one offset per cell marks where the cell's run begins. Insert only
// records positions; the first query after a round of Reset and Inserts
// sorts them into place. Points outside the region hash to the nearest
// edge cell, so row 0, the last row, column 0 and the last column reach
// outward without bound.
//
// The grid is designed to be reused across rebuilds: Reset keeps every
// buffer, and once Grow has sized them (or one build has), a round of
// Reset, Inserts and queries allocates nothing. Queries sort on demand, so
// a grid is not safe for concurrent use.
type Grid struct {
	region Rect
	cell   float64
	cols   int
	rows   int
	// points and cellOf are indexed by item: its registered position and
	// the cell it hashes to, -1 for an index never inserted.
	points []Point
	cellOf []int32
	// Once built, cell c's items are entries[start[c]:start[c+1]].
	entries []entry
	start   []int32
	built   bool
}

// entry is one registered item in the sorted entry array.
type entry struct {
	p     Point
	index int32
}

// NewGrid builds a grid over region with the given cell size. Items are
// registered with Insert. Cell size should be on the order of the query
// radius for best performance.
func NewGrid(region Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = 1
	}
	cols := int(math.Ceil(region.Width()/cellSize)) + 1
	rows := int(math.Ceil(region.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		region: region,
		cell:   cellSize,
		cols:   cols,
		rows:   rows,
		// Two more than the cells: build counts cell c at start[c+2].
		start: make([]int32, cols*rows+2),
	}
}

// axis returns the cell a coordinate v falls in along one axis whose cells
// begin at lo: ⌊(v − lo)/cell⌋ clamped to [0, n−1]. It is monotone in v
// (NaN maps to 0), so a range of coordinates maps to a range of cells.
func (g *Grid) axis(v, lo float64, n int) int {
	f := (v - lo) / g.cell
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

func (g *Grid) col(x float64) int { return g.axis(x, g.region.Min.X, g.cols) }
func (g *Grid) row(y float64) int { return g.axis(y, g.region.Min.Y, g.rows) }

// Grow makes room for n more items, so that inserting them and building
// the grid allocates nothing.
func (g *Grid) Grow(n int) {
	g.entries = presize(g.entries, len(g.points)+n-len(g.entries))
	g.points = presize(g.points, n)
	g.cellOf = presize(g.cellOf, n)
}

// presize returns s with room for exactly n more elements, reallocated only
// when it has less.
func presize[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]E, len(s), len(s)+n)
	copy(t, s)
	return t
}

// Reset empties the grid in place, keeping every buffer, so a following
// round of Inserts allocates nothing once the grid has held as many items.
func (g *Grid) Reset() {
	g.points = g.points[:0]
	g.cellOf = g.cellOf[:0]
	g.built = false
}

// Insert registers an item by index at position p. Indices are expected to
// be assigned densely (0, 1, 2, …) by the caller; inserting an index again
// moves the item.
func (g *Grid) Insert(index int, p Point) {
	for len(g.points) <= index {
		g.points = append(g.points, Point{})
		g.cellOf = append(g.cellOf, -1)
	}
	g.points[index] = p
	g.cellOf[index] = int32(g.row(p.Y)*g.cols + g.col(p.X))
	g.built = false
}

// Position returns the registered position of an item.
func (g *Grid) Position(index int) Point { return g.points[index] }

// build counting-sorts the registered items into entries: a count per
// cell, a prefix sum, then one stable placement pass in index order.
func (g *Grid) build() {
	clear(g.start)
	m := 0
	for _, c := range g.cellOf {
		if c >= 0 {
			g.start[c+2]++
			m++
		}
	}
	for c := 2; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	// start[c+1] is now where cell c begins; placing an item advances it,
	// which leaves start[c] where cell c begins.
	if cap(g.entries) < m {
		g.entries = make([]entry, m)
	}
	g.entries = g.entries[:m]
	for i, c := range g.cellOf {
		if c >= 0 {
			g.entries[g.start[c+1]] = entry{g.points[i], int32(i)}
			g.start[c+1]++
		}
	}
	g.built = true
}

// Within appends to dst the indices of all items within radius of p
// (inclusive), excluding the item with index == exclude (pass -1 to keep
// all). The result ordering is deterministic: row-major by cell, ascending
// index within a cell.
func (g *Grid) Within(dst []int, p Point, radius float64, exclude int) []int {
	_, dst = g.Split(nil, dst, p, -1, radius, exclude)
	return dst
}

// Split is Within(outer) partitioned in one pass: the items within inner of
// p (inclusive) are appended to in, the rest to band, each in Within's
// order. A negative inner puts every item in band, an inner beyond outer
// every item in in.
//
// Each row of cells the circle reaches is read as one run of entries, from
// the first to the last column its chord reaches within that row, or the
// query's whole column span where the chord is within a cell of it. The
// chord is padded, and the bounds go through the same monotone axis map
// Insert hashes with, so the runs hold every item that passes the exact
// d² <= outer² test.
func (g *Grid) Split(in, band []int, p Point, inner, outer float64, exclude int) ([]int, []int) {
	if !g.built {
		g.build()
	}
	in2, out2 := -1.0, outer*outer
	if inner >= 0 {
		in2 = min(inner*inner, out2)
	}
	// pad is 1e-6 of the summed magnitudes the bounds are computed from.
	// Rounding moves a row edge or a column bound by a few ulps of that
	// scale, and a chord near a tangent row by about the square root of a
	// few ulps (some 1e-8 of it): both stay far below the pad.
	pad := 1e-6 * (math.Abs(p.X) + math.Abs(p.Y) + math.Abs(g.region.Min.X) + math.Abs(g.region.Min.Y) + outer + g.cell)
	// A row whose half-chord is at least outer − cell could shed at most a
	// column at each end, which saves less than finding the chord costs.
	near2 := g.cell * (2*outer - g.cell)
	spanFirst, spanLast := g.col(p.X-outer-pad), g.col(p.X+outer+pad)
	maxRow := g.row(p.Y + outer + pad)
	for row := g.row(p.Y - outer - pad); row <= maxRow; row++ {
		// dy is the distance from p to the row's strip, less the pad; the
		// edge rows extend outward without bound.
		dy := 0.0
		if lo := g.region.Min.Y + float64(row)*g.cell; row > 0 && p.Y < lo {
			dy = lo - p.Y - pad
		} else if hi := lo + g.cell; row < g.rows-1 && p.Y > hi {
			dy = p.Y - hi - pad
		}
		first, last := spanFirst, spanLast
		if dy > 0 && dy*dy > near2 {
			if dy >= outer {
				continue // no item in the row is within outer
			}
			h := math.Sqrt(out2-dy*dy) + pad
			first, last = g.col(p.X-h), g.col(p.X+h)
		}
		base := row * g.cols
		run := g.entries[g.start[base+first]:g.start[base+last+1]]
		for _, e := range run {
			if int(e.index) == exclude {
				continue
			}
			dx, dy := e.p.X-p.X, e.p.Y-p.Y
			switch d2 := dx*dx + dy*dy; {
			case d2 <= in2:
				in = append(in, int(e.index))
			case d2 <= out2:
				band = append(band, int(e.index))
			}
		}
	}
	return in, band
}
