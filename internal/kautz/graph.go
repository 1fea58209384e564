package kautz

import (
	"fmt"
	"math"
)

// maxNodes bounds the order of a graph New enumerates: K(2,19) (786,432
// nodes) fits, K(4,10) and K(9,7) do not.
const maxNodes = 1 << 20

// Graph is a fully enumerated Kautz digraph K(d, k). It is immutable after
// construction and safe for concurrent use.
type Graph struct {
	d     int
	k     int
	nodes []ID
}

// New enumerates K(d, k). It returns an error for d < 1, k < 1,
// d > MaxDegree, or a graph of more than maxNodes nodes.
func New(d, k int) (*Graph, error) {
	n, err := order(d, k)
	if err != nil {
		return nil, err
	}
	g := &Graph{d: d, k: k, nodes: make([]ID, 0, n)}
	g.enumerate(make([]byte, k), 0)
	return g, nil
}

// order validates d and k and returns the number of nodes of K(d, k).
func order(d, k int) (int, error) {
	if d < 1 || d > MaxDegree {
		return 0, fmt.Errorf("kautz: degree d=%d out of range [1,%d]", d, MaxDegree)
	}
	if k < 1 {
		return 0, fmt.Errorf("kautz: diameter k=%d must be >= 1", k)
	}
	if n := NumNodes(d, k); n <= maxNodes {
		return n, nil
	}
	return 0, fmt.Errorf("kautz: K(%d,%d) has more than %d nodes", d, k, maxNodes)
}

// enumerate appends every ID with the prefix buf[:pos], trying digits in
// ascending order, so the node list comes out in lexicographic order.
func (g *Graph) enumerate(buf []byte, pos int) {
	if pos == g.k {
		id := ID(buf)
		g.nodes = append(g.nodes, ID(string(id))) // copy out of buf
		return
	}
	for v := 0; v <= g.d; v++ {
		c := byte('0' + v)
		if pos > 0 && buf[pos-1] == c {
			continue
		}
		buf[pos] = c
		g.enumerate(buf, pos+1)
	}
}

// NumNodes returns (d+1)·d^(k-1), the order of K(d, k), or math.MaxInt when
// that does not fit in an int.
func NumNodes(d, k int) int {
	n := d + 1
	for i := 1; i < k; i++ {
		if d > 0 && n > math.MaxInt/d {
			return math.MaxInt
		}
		n *= d
	}
	return n
}

// Degree returns d.
func (g *Graph) Degree() int { return g.d }

// Diameter returns k.
func (g *Graph) Diameter() int { return g.k }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.nodes) }

// Nodes returns a copy of the node set in lexicographic order.
func (g *Graph) Nodes() []ID {
	out := make([]ID, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Contains reports whether id is a node of the graph.
func (g *Graph) Contains(id ID) bool { return g.Index(id) >= 0 }

// Index returns the position of id in the sorted node list, or -1.
func (g *Graph) Index(id ID) int { return rank(g.d, g.k, id) }

// rank returns the position of id among the nodes of K(d, k) in
// lexicographic order, or -1 when id is no node of it. The first digit
// counts in base d+1; each later digit x, which cannot repeat its
// predecessor p, counts as x - [x > p] in base d.
func rank(d, k int, id ID) int {
	if len(id) != k {
		return -1
	}
	r, prev := 0, -1
	for i := 0; i < k; i++ {
		x := int(id[i]) - '0'
		if x < 0 || x > d || x == prev {
			return -1
		}
		digit := x
		if prev >= 0 && x > prev {
			digit--
		}
		r = r*d + digit
		prev = x
	}
	return r
}

// Successors returns the d out-neighbors u2…uk x (x ≠ uk) of u, in
// increasing order of x.
func (g *Graph) Successors(u ID) []ID {
	out := make([]ID, 0, g.d)
	for x := 0; x <= g.d; x++ {
		if x == u.Last() {
			continue
		}
		out = append(out, u.MustShift(x))
	}
	return out
}

// Predecessors returns the d in-neighbors y u1…u(k-1) (y ≠ u1) of u, in
// increasing order of y.
func (g *Graph) Predecessors(u ID) []ID {
	out := make([]ID, 0, g.d)
	prefix := string(u[:len(u)-1])
	for y := 0; y <= g.d; y++ {
		if y == u.First() {
			continue
		}
		out = append(out, ID(fmt.Sprintf("%d%s", y, prefix)))
	}
	return out
}

// HasArc reports whether (u, v) is an arc of the graph.
func (g *Graph) HasArc(u, v ID) bool {
	return g.Contains(u) && g.Contains(v) && IsSuccessor(u, v)
}
