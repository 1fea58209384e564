package kautz

import (
	"fmt"
	"sort"
)

// Graph is a fully enumerated Kautz digraph K(d, k). It is immutable after
// construction and safe for concurrent use.
type Graph struct {
	d     int
	k     int
	nodes []ID
	index map[ID]int
}

// New enumerates K(d, k). It returns an error for d < 1, k < 1, or
// d > MaxDegree.
func New(d, k int) (*Graph, error) {
	if d < 1 || d > MaxDegree {
		return nil, fmt.Errorf("kautz: degree d=%d out of range [1,%d]", d, MaxDegree)
	}
	if k < 1 {
		return nil, fmt.Errorf("kautz: diameter k=%d must be >= 1", k)
	}
	n := NumNodes(d, k)
	g := &Graph{
		d:     d,
		k:     k,
		nodes: make([]ID, 0, n),
		index: make(map[ID]int, n),
	}
	buf := make([]byte, k)
	g.enumerate(buf, 0)
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	for i, id := range g.nodes {
		g.index[id] = i
	}
	return g, nil
}

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

// NumNodes returns (d+1)·d^(k-1), the order of K(d, k).
func NumNodes(d, k int) int {
	n := d + 1
	for i := 1; i < k; i++ {
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
func (g *Graph) Contains(id ID) bool {
	_, ok := g.index[id]
	return ok
}

// Index returns the position of id in the sorted node list, or -1.
func (g *Graph) Index(id ID) int {
	i, ok := g.index[id]
	if !ok {
		return -1
	}
	return i
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
