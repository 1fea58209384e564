package geo

import "math"

// Grid is a spatial hash over a rectangular region that answers "which
// items lie within range ρ of point p" in time proportional to the local
// density rather than the population.
//
// The grid is designed to be reused across rebuilds: Reset clears every
// bucket in place (keeping their capacity) and Insert re-registers items, so
// a simulator that refreshes positions on an epoch never reallocates bucket
// storage after the first build.
type Grid struct {
	region Rect
	cell   float64
	cols   int
	rows   int
	// buckets[row*cols+col] holds the cell's items with their positions
	// inline, so a query reads each bucket sequentially.
	buckets [][]entry
	points  []Point
}

// entry is one registered item in a bucket.
type entry struct {
	index int
	p     Point
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
		region:  region,
		cell:    cellSize,
		cols:    cols,
		rows:    rows,
		buckets: make([][]entry, cols*rows),
	}
}

// bucket returns the row-major index of the bucket a position hashes to.
func (g *Grid) bucket(p Point) int {
	col := min(max(int((p.X-g.region.Min.X)/g.cell), 0), g.cols-1)
	row := min(max(int((p.Y-g.region.Min.Y)/g.cell), 0), g.rows-1)
	return row*g.cols + col
}

// Reset empties the grid in place: every bucket is truncated to length
// zero but keeps its storage, so a following round of Inserts allocates
// nothing once the grid has reached its steady-state occupancy.
func (g *Grid) Reset() {
	for i := range g.buckets {
		if len(g.buckets[i]) > 0 {
			g.buckets[i] = g.buckets[i][:0]
		}
	}
	g.points = g.points[:0]
}

// Insert registers an item by index at position p. Indices are expected to
// be assigned densely (0, 1, 2, …) by the caller.
func (g *Grid) Insert(index int, p Point) {
	for len(g.points) <= index {
		g.points = append(g.points, Point{})
	}
	g.points[index] = p
	b := g.bucket(p)
	g.buckets[b] = append(g.buckets[b], entry{index, p})
}

// Position returns the registered position of an item.
func (g *Grid) Position(index int) Point { return g.points[index] }

// Within appends to dst the indices of all items within radius of p
// (inclusive), excluding the item with index == exclude (pass -1 to keep
// all). The result ordering is deterministic (bucket-major, insertion
// order within buckets).
func (g *Grid) Within(dst []int, p Point, radius float64, exclude int) []int {
	_, dst = g.Split(nil, dst, p, -1, radius, exclude)
	return dst
}

// Split is Within(outer) partitioned in one pass: the items within inner of
// p (inclusive) are appended to in, the rest to band, each in Within's
// order. A negative inner puts every item in band.
func (g *Grid) Split(in, band []int, p Point, inner, outer float64, exclude int) ([]int, []int) {
	minCol := max(int((p.X-outer-g.region.Min.X)/g.cell), 0)
	maxCol := min(int((p.X+outer-g.region.Min.X)/g.cell), g.cols-1)
	minRow := max(int((p.Y-outer-g.region.Min.Y)/g.cell), 0)
	maxRow := min(int((p.Y+outer-g.region.Min.Y)/g.cell), g.rows-1)
	in2, out2 := -1.0, outer*outer
	if inner >= 0 {
		in2 = inner * inner
	}
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			for _, e := range g.buckets[row*g.cols+col] {
				if e.index == exclude {
					continue
				}
				dx, dy := e.p.X-p.X, e.p.Y-p.Y
				switch d2 := dx*dx + dy*dy; {
				case d2 <= in2:
					in = append(in, e.index)
				case d2 <= out2:
					band = append(band, e.index)
				}
			}
		}
	}
	return in, band
}
