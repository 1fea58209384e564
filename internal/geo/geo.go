// Package geo provides the planar geometry substrate of the WSAN simulator:
// points and distances, rectangular deployment regions, deterministic
// uniform node placement, a spatial hash grid for O(1) neighborhood queries,
// and the triangle partitioning of the actuator layer that defines REFER's
// cells (Section III-B-1 of the paper).
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in meters on the deployment plane.
type Point struct {
	X float64
	Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{X: p.X + dx, Y: p.Y + dy} }

// Sub returns the vector p − q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{X: p.X * s, Y: p.Y * s} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Lerp returns the point a fraction t of the way from p to q.
// t is clamped to [0, 1].
func (p Point) Lerp(q Point, t float64) Point {
	if t <= 0 {
		return p
	}
	if t >= 1 {
		return q
	}
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle, the deployment region.
type Rect struct {
	Min Point
	Max Point
}

// Square returns a side×side region anchored at the origin.
func Square(side float64) Rect {
	return Rect{Max: Point{X: side, Y: side}}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies within the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p constrained to lie within the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// RandomPoint draws a uniform point inside the rectangle using rng.
func (r Rect) RandomPoint(rng *rand.Rand) Point {
	return Point{
		X: r.Min.X + rng.Float64()*r.Width(),
		Y: r.Min.Y + rng.Float64()*r.Height(),
	}
}

// RandomPointNear draws a uniform point inside the intersection of the
// rectangle and the disc of the given radius around center. It retries by
// rejection sampling; the fallback after many misses is the clamped center,
// which keeps the function total for degenerate radii.
func (r Rect) RandomPointNear(rng *rand.Rand, center Point, radius float64) Point {
	for i := 0; i < 64; i++ {
		angle := rng.Float64() * 2 * math.Pi
		// sqrt for uniform density over the disc area.
		rho := radius * math.Sqrt(rng.Float64())
		p := center.Add(rho*math.Cos(angle), rho*math.Sin(angle))
		if r.Contains(p) {
			return p
		}
	}
	return r.Clamp(center)
}
