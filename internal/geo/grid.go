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
	// buckets[row*cols+col] holds item indices.
	buckets [][]int
	points  []Point
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
		buckets: make([][]int, cols*rows),
	}
}

// CellKey returns the bucket a position hashes to, as a row-major integer.
// Sorting items by (CellKey, index) reproduces exactly the bucket-major
// order a freshly built grid's Within would return them in — which is how
// the simulator keeps query results byte-identical while serving them from
// an epoch-stale index.
func (g *Grid) CellKey(p Point) int {
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
	b := g.CellKey(p)
	g.buckets[b] = append(g.buckets[b], index)
}

// Position returns the registered position of an item.
func (g *Grid) Position(index int) Point { return g.points[index] }

// Within appends to dst the indices of all items within radius of p
// (inclusive), excluding the item with index == exclude (pass -1 to keep
// all). The result ordering is deterministic (bucket-major, insertion
// order within buckets).
func (g *Grid) Within(dst []int, p Point, radius float64, exclude int) []int {
	minCol := max(int((p.X-radius-g.region.Min.X)/g.cell), 0)
	maxCol := min(int((p.X+radius-g.region.Min.X)/g.cell), g.cols-1)
	minRow := max(int((p.Y-radius-g.region.Min.Y)/g.cell), 0)
	maxRow := min(int((p.Y+radius-g.region.Min.Y)/g.cell), g.rows-1)
	r2 := radius * radius
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			for _, idx := range g.buckets[row*g.cols+col] {
				if idx == exclude {
					continue
				}
				q := g.points[idx]
				dx, dy := q.X-p.X, q.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, idx)
				}
			}
		}
	}
	return dst
}

// Nearest returns the index of the registered item closest to p, excluding
// exclude (pass -1 to keep all), or -1 when the grid is empty. Ties resolve
// to the lowest index.
//
// The search spirals outward bucket ring by bucket ring from p's cell and
// stops as soon as no unvisited ring can hold a closer item, so the cost is
// proportional to the local density rather than the population.
func (g *Grid) Nearest(p Point, exclude int) int {
	if len(g.points) == 0 {
		return -1
	}
	// Unclamped cell coordinates: p may lie outside the region, in which
	// case the spiral starts from the out-of-range cell and the in-bounds
	// window below does the clamping.
	c0 := int(math.Floor((p.X - g.region.Min.X) / g.cell))
	r0 := int(math.Floor((p.Y - g.region.Min.Y) / g.cell))
	maxRing := c0
	if v := g.cols - 1 - c0; v > maxRing {
		maxRing = v
	}
	if r0 > maxRing {
		maxRing = r0
	}
	if v := g.rows - 1 - r0; v > maxRing {
		maxRing = v
	}
	best, bestDist := -1, math.Inf(1)
	scan := func(row, col int) {
		if row < 0 || row >= g.rows || col < 0 || col >= g.cols {
			return
		}
		for _, idx := range g.buckets[row*g.cols+col] {
			if idx == exclude {
				continue
			}
			// Lowest index wins exact ties: buckets are visited in ring
			// order, not index order, so the tie must be broken explicitly.
			if d := p.Dist(g.points[idx]); d < bestDist || (d == bestDist && idx < best) {
				best, bestDist = idx, d
			}
		}
	}
	for ring := 0; ring <= maxRing; ring++ {
		// A cell at Chebyshev ring distance `ring` from p's cell cannot hold
		// a point closer than (ring-1)·cell, so once the best found beats
		// that bound the spiral is done.
		if best != -1 && float64(ring-1)*g.cell > bestDist {
			break
		}
		if ring == 0 {
			scan(r0, c0)
			continue
		}
		for col := c0 - ring; col <= c0+ring; col++ {
			scan(r0-ring, col)
			scan(r0+ring, col)
		}
		for row := r0 - ring + 1; row <= r0+ring-1; row++ {
			scan(row, c0-ring)
			scan(row, c0+ring)
		}
	}
	return best
}
