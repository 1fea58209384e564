package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// HamiltonianRangeFactor is the 0.8 constant of Proposition 3.2: nodes
// uniformly deployed in a square of side b can be formed into a Hamiltonian
// cycle when their transmission range r satisfies r ≥ 0.8·b.
const HamiltonianRangeFactor = 0.8

// MaxCellSide returns the largest square cell side b a transmission range r
// supports under Proposition 3.2 (b ≤ r/0.8 = √(2π)/2·r approximately).
func MaxCellSide(r float64) float64 { return r / HamiltonianRangeFactor }

// SatisfiesHamiltonianPrecondition reports whether a square cell of side b
// and node transmission range r meets Proposition 3.2's Dirac-condition
// bound r ≥ 0.8·b.
func SatisfiesHamiltonianPrecondition(r, b float64) bool {
	return r >= HamiltonianRangeFactor*b
}

func TestPointOps(t *testing.T) {
	p := Point{X: 3, Y: 4}
	q := Point{}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %f, want 5", got)
	}
	if got := p.Add(1, -1); got != (Point{X: 4, Y: 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Point{X: 1, Y: 1}); got != (Point{X: 2, Y: 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{X: 6, Y: 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.String(); got != "(3.0,4.0)" {
		t.Errorf("String = %q", got)
	}
}

func TestLerp(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 10, Y: 20}
	tests := []struct {
		t    float64
		want Point
	}{
		{t: 0, want: a},
		{t: 1, want: b},
		{t: 0.5, want: Point{X: 5, Y: 10}},
		{t: -0.5, want: a}, // clamped
		{t: 1.5, want: b},  // clamped
	}
	for _, tt := range tests {
		if got := a.Lerp(b, tt.t); got != tt.want {
			t.Errorf("Lerp(%f) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestRect(t *testing.T) {
	r := Square(500)
	if r.Width() != 500 || r.Height() != 500 {
		t.Fatalf("Square(500) = %+v", r)
	}
	if !r.Contains(Point{X: 250, Y: 250}) {
		t.Error("center not contained")
	}
	if r.Contains(Point{X: -1, Y: 0}) {
		t.Error("outside point contained")
	}
	if got := r.Clamp(Point{X: -10, Y: 600}); got != (Point{X: 0, Y: 500}) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestRandomPointStaysInside(t *testing.T) {
	r := Square(500)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := r.RandomPoint(rng)
		if !r.Contains(p) {
			t.Fatalf("RandomPoint %v outside region", p)
		}
	}
}

func TestRandomPointNear(t *testing.T) {
	r := Square(500)
	rng := rand.New(rand.NewSource(2))
	center := Point{X: 100, Y: 100}
	const radius = 50.0
	for i := 0; i < 1000; i++ {
		p := r.RandomPointNear(rng, center, radius)
		if !r.Contains(p) {
			t.Fatalf("point %v outside region", p)
		}
		if d := p.Dist(center); d > radius+1e-9 {
			t.Fatalf("point %v at distance %f > radius", p, d)
		}
	}
	// Center in a corner: rejection sampling must still return in-region points.
	corner := Point{X: 0, Y: 0}
	for i := 0; i < 100; i++ {
		p := r.RandomPointNear(rng, corner, 10)
		if !r.Contains(p) {
			t.Fatalf("corner sample %v outside region", p)
		}
	}
	// Degenerate: center far outside with tiny radius falls back to clamp.
	p := r.RandomPointNear(rng, Point{X: -1000, Y: -1000}, 1)
	if !r.Contains(p) {
		t.Fatalf("fallback %v outside region", p)
	}
}

func TestHamiltonianPrecondition(t *testing.T) {
	// Proposition 3.2: r ≥ 0.8·b.
	if !SatisfiesHamiltonianPrecondition(100, 120) {
		t.Error("r=100 b=120 should satisfy (0.8·120 = 96)")
	}
	if SatisfiesHamiltonianPrecondition(100, 130) {
		t.Error("r=100 b=130 should fail (0.8·130 = 104)")
	}
	if got := MaxCellSide(100); math.Abs(got-125) > 1e-9 {
		t.Errorf("MaxCellSide(100) = %f, want 125", got)
	}
	// The 0.8 constant approximates b ≤ (√(2π)/2)·r from Eq. (1), i.e.
	// r ≥ b/(√(2π)/2) ≈ 0.7979·b.
	exact := 2 / math.Sqrt(2*math.Pi)
	if math.Abs(HamiltonianRangeFactor-exact) > 0.005 {
		t.Errorf("0.8 should approximate %f", exact)
	}
}

func TestGridWithin(t *testing.T) {
	r := Square(100)
	g := NewGrid(r, 10)
	pts := []Point{
		{X: 5, Y: 5},
		{X: 8, Y: 5},
		{X: 50, Y: 50},
		{X: 95, Y: 95},
		{X: 5, Y: 9},
	}
	for i, p := range pts {
		g.Insert(i, p)
	}
	got := g.Within(nil, Point{X: 5, Y: 5}, 5, -1)
	want := map[int]bool{0: true, 1: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want indices %v", got, want)
	}
	for _, idx := range got {
		if !want[idx] {
			t.Errorf("unexpected index %d in result", idx)
		}
	}
	// Exclusion.
	got = g.Within(nil, Point{X: 5, Y: 5}, 5, 0)
	for _, idx := range got {
		if idx == 0 {
			t.Error("excluded index returned")
		}
	}
	// Radius 0 returns only exact matches.
	got = g.Within(nil, Point{X: 50, Y: 50}, 0, -1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("radius-0 query = %v, want [2]", got)
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	r := Square(500)
	rng := rand.New(rand.NewSource(7))
	g := NewGrid(r, 50)
	const n = 300
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = r.RandomPoint(rng)
		g.Insert(i, pts[i])
	}
	for trial := 0; trial < 50; trial++ {
		q := r.RandomPoint(rng)
		radius := rng.Float64() * 150
		got := g.Within(nil, q, radius, -1)
		gotSet := make(map[int]bool, len(got))
		for _, idx := range got {
			gotSet[idx] = true
		}
		for i, p := range pts {
			inRange := p.Dist(q) <= radius
			if inRange != gotSet[i] {
				t.Fatalf("trial %d: index %d inRange=%v gridHit=%v", trial, i, inRange, gotSet[i])
			}
		}
	}
}

func TestGridPositionRoundTrip(t *testing.T) {
	g := NewGrid(Square(10), 1)
	p := Point{X: 3.5, Y: 7.25}
	g.Insert(0, p)
	if got := g.Position(0); got != p {
		t.Errorf("Position = %v, want %v", got, p)
	}
}

func TestGridDegenerateCellSize(t *testing.T) {
	g := NewGrid(Square(10), -5) // coerced to a sane default
	g.Insert(0, Point{X: 5, Y: 5})
	if got := g.Within(nil, Point{X: 5, Y: 5}, 1, -1); len(got) != 1 {
		t.Fatalf("degenerate grid Within = %v", got)
	}
}

func TestQuickLerpBounded(t *testing.T) {
	f := func(ax, ay, bx, by, tt float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) || math.IsNaN(tt) {
			return true
		}
		a := Point{X: math.Mod(ax, 1000), Y: math.Mod(ay, 1000)}
		b := Point{X: math.Mod(bx, 1000), Y: math.Mod(by, 1000)}
		frac := math.Abs(math.Mod(tt, 1))
		p := a.Lerp(b, frac)
		// The interpolated point can be no farther from a than b is, and no
		// farther from b than a is (within float tolerance).
		return p.Dist(a) <= a.Dist(b)+1e-6 && p.Dist(b) <= a.Dist(b)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangulateSquareLayout(t *testing.T) {
	// Four corners + center, everyone adjacent: classic 4-cell layout of
	// the paper's default scenario (5 actuators → 4 cells).
	pts := []Point{
		{X: 0, Y: 0},
		{X: 500, Y: 0},
		{X: 500, Y: 500},
		{X: 0, Y: 500},
		{X: 250, Y: 250},
	}
	adj := completeAdjacency(len(pts))
	tris, err := Triangulate(pts, adj)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 4 {
		t.Fatalf("got %d triangles, want 4: %v", len(tris), tris)
	}
	// Every triangle should include the center (index 4) in this layout.
	for _, tri := range tris {
		vs := tri.Vertices()
		if vs[0] != 4 && vs[1] != 4 && vs[2] != 4 {
			t.Errorf("triangle %v does not include the center actuator", tri)
		}
	}
}

func TestTriangulateRespectsAdjacency(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 80}}
	// No edges at all → no triangles.
	adj := make([][]int, 3)
	if _, err := Triangulate(pts, adj); err == nil {
		t.Fatal("expected error with empty adjacency")
	}
	adj = completeAdjacency(3)
	tris, err := Triangulate(pts, adj)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 1 {
		t.Fatalf("got %v, want single triangle", tris)
	}
}

func TestTriangulateErrors(t *testing.T) {
	if _, err := Triangulate([]Point{{X: 0, Y: 0}}, [][]int{{}}); err == nil {
		t.Error("expected error for < 3 points")
	}
	// Collinear triple: no valid triangle.
	pts := []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}}
	if _, err := Triangulate(pts, completeAdjacency(3)); err == nil {
		t.Error("expected error for collinear points")
	}
}

func TestTriangulateNonOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := Square(500)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = r.RandomPoint(rng)
		}
		tris, err := Triangulate(pts, completeAdjacency(n))
		if err != nil {
			continue // fully collinear layouts are acceptable failures
		}
		for i := 0; i < len(tris); i++ {
			for j := i + 1; j < len(tris); j++ {
				if trianglesOverlap(tris[i], tris[j], pts) {
					t.Fatalf("trial %d: triangles %v and %v overlap", trial, tris[i], tris[j])
				}
			}
		}
	}
}

func TestTriangleCentroid(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 3}}
	tri := Triangle{A: 0, B: 1, C: 2}
	if got := tri.Centroid(pts); got != (Point{X: 1, Y: 1}) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
}

func completeAdjacency(n int) [][]int {
	adj := make([][]int, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}
