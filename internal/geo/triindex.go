package geo

import "math"

// PointInTriangle reports whether p lies inside triangle abc, boundary
// inclusive (the sign test the REFER cells use for membership; contrast
// pointInTriangleStrict, which the triangulation's overlap test uses).
func PointInTriangle(p, a, b, c Point) bool {
	d1 := cross(a, b, p)
	d2 := cross(b, c, p)
	d3 := cross(c, a, p)
	hasNeg := d1 < 0 || d2 < 0 || d3 < 0
	hasPos := d1 > 0 || d2 > 0 || d3 > 0
	return !(hasNeg && hasPos)
}

// DistToSegment returns the Euclidean distance from p to segment ab.
func DistToSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	ap := p.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(a)
	}
	t := (ap.X*ab.X + ap.Y*ab.Y) / den
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	proj := a.Add(ab.X*t, ab.Y*t)
	return p.Dist(proj)
}

// DistToTriangle returns how far p lies outside triangle abc (0 if inside,
// boundary inclusive).
func DistToTriangle(p, a, b, c Point) float64 {
	if PointInTriangle(p, a, b, c) {
		return 0
	}
	dist := DistToSegment(p, a, b)
	if e := DistToSegment(p, b, c); e < dist {
		dist = e
	}
	if e := DistToSegment(p, c, a); e < dist {
		dist = e
	}
	return dist
}

// TriIndex answers point-location queries over a fixed set of triangles (the
// REFER cells) in time proportional to the local triangle density rather
// than the triangle count: which triangle contains a point, and which
// triangle is nearest within a margin. Triangles never move after
// construction — REFER cell vertices are fixed at build time — so the index
// is built once and read forever.
//
// Both queries are drop-in replacements for a linear scan in ascending
// triangle order: Containing returns the FIRST containing triangle and
// NearestWithin keeps the LAST triangle at equal minimal distance (the
// `d <= best` update rule), exactly matching the loops they replace, so an
// indexed caller is byte-identical to a scanning one. Queries share scratch
// buffers; a TriIndex must not be used from multiple goroutines.
type TriIndex struct {
	tris   [][3]Point
	region Rect
	cell   float64
	cols   int
	rows   int
	// buckets[row*cols+col] holds, in ascending order, every triangle whose
	// bounding box overlaps the bucket.
	buckets [][]int32

	// Query scratch: stamp[i] == gen marks triangle i as already collected
	// in the current NearestWithin query.
	stamp   []uint32
	gen     uint32
	scratch []int32
	// checks counts triangle predicate evaluations across all queries — the
	// index's work, comparable against a linear scan's cells-per-query.
	checks uint64
}

// NewTriIndex builds an index over tris. The bucket size is derived from
// the mean triangle bounding-box extent, so a query for a point touches a
// handful of triangles regardless of how many the region holds.
func NewTriIndex(tris [][3]Point) *TriIndex {
	idx := &TriIndex{tris: tris}
	if len(tris) == 0 {
		idx.cols, idx.rows = 1, 1
		idx.cell = 1
		idx.buckets = make([][]int32, 1)
		return idx
	}
	min := tris[0][0]
	max := tris[0][0]
	meanExtent := 0.0
	for _, t := range tris {
		lo, hi := triBounds(t)
		if lo.X < min.X {
			min.X = lo.X
		}
		if lo.Y < min.Y {
			min.Y = lo.Y
		}
		if hi.X > max.X {
			max.X = hi.X
		}
		if hi.Y > max.Y {
			max.Y = hi.Y
		}
		meanExtent += math.Max(hi.X-lo.X, hi.Y-lo.Y)
	}
	meanExtent /= float64(len(tris))
	if meanExtent <= 0 {
		meanExtent = 1
	}
	idx.region = Rect{Min: min, Max: max}
	idx.cell = meanExtent
	idx.cols = int(math.Ceil(idx.region.Width()/idx.cell)) + 1
	idx.rows = int(math.Ceil(idx.region.Height()/idx.cell)) + 1
	idx.buckets = make([][]int32, idx.cols*idx.rows)
	for i, t := range tris {
		lo, hi := triBounds(t)
		minCol, minRow := idx.cellCoords(lo)
		maxCol, maxRow := idx.cellCoords(hi)
		for row := minRow; row <= maxRow; row++ {
			for col := minCol; col <= maxCol; col++ {
				b := row*idx.cols + col
				idx.buckets[b] = append(idx.buckets[b], int32(i))
			}
		}
	}
	idx.stamp = make([]uint32, len(tris))
	return idx
}

func triBounds(t [3]Point) (lo, hi Point) {
	lo, hi = t[0], t[0]
	for _, v := range t[1:] {
		if v.X < lo.X {
			lo.X = v.X
		}
		if v.Y < lo.Y {
			lo.Y = v.Y
		}
		if v.X > hi.X {
			hi.X = v.X
		}
		if v.Y > hi.Y {
			hi.Y = v.Y
		}
	}
	return lo, hi
}

// cellCoords returns p's bucket coordinates clamped into the grid.
func (idx *TriIndex) cellCoords(p Point) (col, row int) {
	col = int((p.X - idx.region.Min.X) / idx.cell)
	row = int((p.Y - idx.region.Min.Y) / idx.cell)
	if col < 0 {
		col = 0
	}
	if col >= idx.cols {
		col = idx.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= idx.rows {
		row = idx.rows - 1
	}
	return col, row
}

// Containing returns the lowest index of a triangle containing p (boundary
// inclusive), or -1 — the same answer as scanning all triangles in order
// and stopping at the first hit. Any containing triangle's bounding box
// covers p, so only p's bucket needs scanning; bucket contents are kept in
// ascending index order, preserving the first-hit tie-break.
func (idx *TriIndex) Containing(p Point) int {
	if len(idx.tris) == 0 || !idx.region.Contains(p) {
		return -1
	}
	col, row := idx.cellCoords(p)
	for _, ti := range idx.buckets[row*idx.cols+col] {
		idx.checks++
		t := idx.tris[ti]
		if PointInTriangle(p, t[0], t[1], t[2]) {
			return int(ti)
		}
	}
	return -1
}

// NearestWithin returns the index of the triangle nearest to p among those
// within margin of it, or -1. Ties on the minimal distance resolve to the
// HIGHEST triangle index — the result of scanning all triangles in order
// with a `d <= best` update — because that is the rule the linear membership
// scan it replaces used. A triangle within margin of p has its bounding box
// intersecting the margin-square around p, so the candidate set drawn from
// those buckets is exhaustive; candidates are deduplicated, sorted
// ascending, and then judged by exactly the linear scan's comparison.
func (idx *TriIndex) NearestWithin(p Point, margin float64) int {
	if len(idx.tris) == 0 {
		return -1
	}
	lo := Point{X: p.X - margin, Y: p.Y - margin}
	hi := Point{X: p.X + margin, Y: p.Y + margin}
	if hi.X < idx.region.Min.X || lo.X > idx.region.Max.X ||
		hi.Y < idx.region.Min.Y || lo.Y > idx.region.Max.Y {
		return -1
	}
	minCol, minRow := idx.cellCoords(lo)
	maxCol, maxRow := idx.cellCoords(hi)
	idx.gen++
	cand := idx.scratch[:0]
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			for _, ti := range idx.buckets[row*idx.cols+col] {
				if idx.stamp[ti] == idx.gen {
					continue
				}
				idx.stamp[ti] = idx.gen
				cand = append(cand, ti)
			}
		}
	}
	// Ascending index order replays the linear scan exactly; insertion sort
	// keeps the query allocation-free (candidate sets are small).
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	idx.scratch = cand
	best := -1
	bestDist := margin
	for _, ti := range cand {
		idx.checks++
		t := idx.tris[ti]
		if d := DistToTriangle(p, t[0], t[1], t[2]); d <= bestDist {
			best, bestDist = int(ti), d
		}
	}
	return best
}

// Len returns the number of indexed triangles.
func (idx *TriIndex) Len() int { return len(idx.tris) }

// Checks returns the total triangle predicate evaluations performed across
// all queries since construction (monotone; the index's work counter).
func (idx *TriIndex) Checks() uint64 { return idx.checks }
