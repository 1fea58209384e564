package kautz

import (
	"fmt"
	"math"
	"testing"
)

// The property checks below are ground truth for the tests: they verify the
// enumeration and the paper's lemmas by brute force, and nothing in the
// simulator calls them.

// MooreBound returns the directed Moore bound 1 + d + d² + … + d^k on the
// order of a digraph with maximum out-degree d and diameter k. K(d, k)
// approaches this bound as k decreases (Section III-B of the paper).
func MooreBound(d, k int) int {
	sum, pow := 1, 1
	for i := 1; i <= k; i++ {
		pow *= d
		sum += pow
	}
	return sum
}

// IsStronglyConnected reports whether every node can reach every other node
// following arc directions. Kautz graphs are strongly connected; the check
// exists so tests can verify the enumeration.
func (g *Graph) IsStronglyConnected() bool {
	if len(g.nodes) == 0 {
		return false
	}
	if !g.reachesAll(g.nodes[0], g.Successors) {
		return false
	}
	return g.reachesAll(g.nodes[0], g.Predecessors)
}

func (g *Graph) reachesAll(start ID, next func(ID) []ID) bool {
	seen := make(map[ID]bool, len(g.nodes))
	queue := []ID{start}
	seen[start] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range next(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// BFSDistance returns the true directed hop distance from u to v computed by
// breadth-first search, or -1 if unreachable. It is the ground truth the
// routing tests compare ID-based distances against.
func (g *Graph) BFSDistance(u, v ID) int {
	if !g.Contains(u) || !g.Contains(v) {
		return -1
	}
	if u == v {
		return 0
	}
	dist := map[ID]int{u: 0}
	queue := []ID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.Successors(x) {
			if _, ok := dist[y]; ok {
				continue
			}
			dist[y] = dist[x] + 1
			if y == v {
				return dist[y]
			}
			queue = append(queue, y)
		}
	}
	return -1
}

// HamiltonianCycle returns a Hamiltonian cycle of K(d, k) as a sequence of
// all N nodes; the arc from the last element back to the first closes the
// cycle. It exploits the line-digraph property: K(d, k) is the line digraph
// of K(d, k-1), so an Eulerian circuit of K(d, k-1) visits every arc —
// i.e. every node of K(d, k) — exactly once. For k == 1, K(d, 1) is the
// complete digraph on d+1 vertices and the cycle is 0,1,…,d.
//
// The existence of this cycle is what lets REFER embed a Kautz graph into a
// physical topology that itself admits a Hamiltonian cycle (Prop. 3.2).
func (g *Graph) HamiltonianCycle() ([]ID, error) {
	if g.k == 1 {
		cycle := make([]ID, 0, g.d+1)
		for v := 0; v <= g.d; v++ {
			cycle = append(cycle, ID([]byte{byte('0' + v)}))
		}
		return cycle, nil
	}
	base, err := New(g.d, g.k-1)
	if err != nil {
		return nil, err
	}
	circuit := base.eulerianCircuit()
	if circuit == nil {
		return nil, fmt.Errorf("kautz: no Eulerian circuit in K(%d,%d)", g.d, g.k-1)
	}
	// Each consecutive pair (circuit[i], circuit[i+1]) is an arc of
	// K(d, k-1), i.e. a node of K(d, k): the (k-1)-string of circuit[i]
	// extended by the last digit of circuit[i+1].
	cycle := make([]ID, 0, g.N())
	for i := 0; i < len(circuit)-1; i++ {
		u := circuit[i]
		v := circuit[i+1]
		cycle = append(cycle, ID(string(u)+string(v[len(v)-1])))
	}
	return cycle, nil
}

// eulerianCircuit returns a closed walk using every arc exactly once
// (Hierholzer's algorithm). Kautz digraphs are Eulerian: in-degree equals
// out-degree at every vertex and the graph is strongly connected.
// The returned slice has NumEdges+1 elements, first == last.
func (g *Graph) eulerianCircuit() []ID {
	next := make(map[ID][]ID, g.N())
	for _, u := range g.nodes {
		next[u] = g.Successors(u)
	}
	var circuit []ID
	stack := []ID{g.nodes[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		if outs := next[u]; len(outs) > 0 {
			v := outs[len(outs)-1]
			next[u] = outs[:len(outs)-1]
			stack = append(stack, v)
		} else {
			circuit = append(circuit, u)
			stack = stack[:len(stack)-1]
		}
	}
	// Hierholzer emits the circuit in reverse; reverse in place.
	for i, j := 0, len(circuit)-1; i < j; i, j = i+1, j-1 {
		circuit[i], circuit[j] = circuit[j], circuit[i]
	}
	if len(circuit) != NumEdges(g.d, g.k)+1 {
		return nil
	}
	return circuit
}

// MinVertexCut returns the minimum number of internal vertices whose removal
// disconnects u from v (u ≠ v, no arc check), computed by max-flow on the
// split-vertex graph. By Menger's theorem this equals the maximum number of
// internally vertex-disjoint u→v paths. Lemma 3.1 asserts this is d for any
// pair of distinct vertices of K(d, k).
func (g *Graph) MinVertexCut(u, v ID) int {
	if u == v || !g.Contains(u) || !g.Contains(v) {
		return -1
	}
	// Split each vertex w into w_in and w_out with a capacity-1 arc, except
	// the source u (use u_out only) and sink v (use v_in only). Original
	// arcs get infinite capacity. Run BFS-based augmenting paths (capacity
	// values are 0/1 on vertex arcs so Edmonds-Karp terminates after at
	// most d+1 augmentations).
	type edge struct {
		to  int
		cap int
		rev int
	}
	n := g.N()
	idIn := func(i int) int { return 2 * i }
	idOut := func(i int) int { return 2*i + 1 }
	graph := make([][]edge, 2*n)
	addEdge := func(a, b, c int) {
		graph[a] = append(graph[a], edge{to: b, cap: c, rev: len(graph[b])})
		graph[b] = append(graph[b], edge{to: a, cap: 0, rev: len(graph[a]) - 1})
	}
	const inf = 1 << 30
	for i, w := range g.nodes {
		capw := 1
		if w == u || w == v {
			capw = inf
		}
		addEdge(idIn(i), idOut(i), capw)
		for _, s := range g.Successors(w) {
			capArc := inf
			if w == u && s == v {
				// A direct u→v arc has no internal vertex; it contributes
				// exactly one internally disjoint path.
				capArc = 1
			}
			addEdge(idOut(i), idIn(g.Index(s)), capArc)
		}
	}
	src := idOut(g.Index(u))
	dst := idIn(g.Index(v))
	flow := 0
	for {
		// BFS for an augmenting path.
		prevNode := make([]int, 2*n)
		prevEdge := make([]int, 2*n)
		for i := range prevNode {
			prevNode[i] = -1
		}
		prevNode[src] = src
		queue := []int{src}
		for len(queue) > 0 && prevNode[dst] == -1 {
			a := queue[0]
			queue = queue[1:]
			for ei, e := range graph[a] {
				if e.cap > 0 && prevNode[e.to] == -1 {
					prevNode[e.to] = a
					prevEdge[e.to] = ei
					queue = append(queue, e.to)
				}
			}
		}
		if prevNode[dst] == -1 {
			return flow
		}
		// All augmenting paths here have bottleneck 1 (vertex arcs).
		for a := dst; a != src; {
			p := prevNode[a]
			e := &graph[p][prevEdge[a]]
			e.cap--
			graph[a][e.rev].cap++
			a = p
		}
		flow++
	}
}

// BenchmarkHamiltonianCycleK25 measures the line-digraph Eulerian
// construction on K(2,5) (48 nodes).
func BenchmarkHamiltonianCycleK25(b *testing.B) {
	g, err := New(2, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.HamiltonianCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinVertexCutK23 measures the Menger max-flow check used by the
// Lemma 3.1 tests.
func BenchmarkMinVertexCutK23(b *testing.B) {
	g, err := New(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.MinVertexCut("012", "201"); got != 2 {
			b.Fatalf("cut = %d", got)
		}
	}
}

// primaryArcLoad returns max ÷ mean of the arc load of Theorem 3.8 primary
// routes over every arc of K(d, k): the load of an arc is the number of
// ordered pairs (u, v), u ≠ v, whose routes[0].Path crosses it. With
// toCorners the pairs are every u to the three corner KIDs 012, 120 and
// 201; otherwise every ordered pair. Routes are read through the shared
// table, so the tabulated entries are what is counted.
func primaryArcLoad(t *testing.T, d, k int, toCorners bool) float64 {
	t.Helper()
	g, err := New(d, k)
	if err != nil {
		t.Fatal(err)
	}
	table, err := TableFor(d, k)
	if err != nil {
		t.Fatal(err)
	}
	dsts := g.Nodes()
	if toCorners {
		dsts = []ID{"012", "120", "201"}
	}
	load := make(map[[2]ID]int)
	for _, u := range g.Nodes() {
		for _, v := range dsts {
			if u == v {
				continue
			}
			routes, ok := table.Routes(u, v)
			if !ok {
				t.Fatalf("K(%d,%d): table misses %s→%s", d, k, u, v)
			}
			path := routes[0].Path
			for i := 1; i < len(path); i++ {
				if !g.HasArc(path[i-1], path[i]) {
					t.Fatalf("K(%d,%d): %s→%s primary path steps off the graph at %s→%s", d, k, u, v, path[i-1], path[i])
				}
				load[[2]ID{path[i-1], path[i]}]++
			}
		}
	}
	maxLoad, total := 0, 0
	for _, l := range load {
		maxLoad = max(maxLoad, l)
		total += l
	}
	arcs := g.N() * d
	return float64(maxLoad) * float64(arcs) / float64(total)
}

// TestPrimaryArcLoad pins how unevenly Theorem 3.8's primary routes load
// the arcs of K(d,3) — the prior for where a saturated cell congests first:
// nearly even all-to-all, concentrated on the corners' in-arcs when every
// packet heads for an actuator, more so as d grows.
func TestPrimaryArcLoad(t *testing.T) {
	for _, c := range []struct {
		d                int
		allToAll, corner float64
	}{
		{2, 1.176, 2.880},
		{3, 1.129, 7.200},
		{4, 1.069, 13.521},
	} {
		if got := primaryArcLoad(t, c.d, 3, false); math.Abs(got-c.allToAll) > 5e-4 {
			t.Errorf("K(%d,3) all-to-all max/mean = %.4f, want %.3f", c.d, got, c.allToAll)
		}
		if got := primaryArcLoad(t, c.d, 3, true); math.Abs(got-c.corner) > 5e-4 {
			t.Errorf("K(%d,3) to-corners max/mean = %.4f, want %.3f", c.d, got, c.corner)
		}
	}
}
