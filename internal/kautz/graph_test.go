package kautz

import (
	"testing"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		d, k    int
		wantErr bool
	}{
		{name: "K(2,3)", d: 2, k: 3, wantErr: false},
		{name: "K(1,1)", d: 1, k: 1, wantErr: false},
		{name: "zero degree", d: 0, k: 3, wantErr: true},
		{name: "zero diameter", d: 2, k: 0, wantErr: true},
		{name: "degree too large", d: 10, k: 2, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.d, tt.k)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d,%d) error = %v, wantErr %v", tt.d, tt.k, err, tt.wantErr)
			}
		})
	}
}

func TestGraphOrderAndSize(t *testing.T) {
	// N = (d+1)·d^(k−1), |E| = (d+1)·d^k (Lemma 3.1 prerequisites).
	tests := []struct {
		d, k      int
		wantNodes int
	}{
		{1, 1, 2},
		{2, 1, 3},
		{2, 2, 6},
		{2, 3, 12},
		{3, 3, 36},
		{4, 4, 320},
		{2, 5, 48},
	}
	for _, tt := range tests {
		g, err := New(tt.d, tt.k)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", tt.d, tt.k, err)
		}
		if g.N() != tt.wantNodes {
			t.Errorf("K(%d,%d).N() = %d, want %d", tt.d, tt.k, g.N(), tt.wantNodes)
		}
		if NumNodes(tt.d, tt.k) != tt.wantNodes {
			t.Errorf("NumNodes(%d,%d) = %d, want %d", tt.d, tt.k, NumNodes(tt.d, tt.k), tt.wantNodes)
		}
		if got, want := NumEdges(tt.d, tt.k), tt.wantNodes*tt.d; got != want {
			t.Errorf("NumEdges(%d,%d) = %d, want %d", tt.d, tt.k, got, want)
		}
		// Euler degree-sum equality |E| = N·d from the Lemma 3.1 proof.
		edges := 0
		for _, u := range g.Nodes() {
			edges += len(g.Successors(u))
		}
		if edges != NumEdges(tt.d, tt.k) {
			t.Errorf("K(%d,%d) enumerated %d arcs, want %d", tt.d, tt.k, edges, NumEdges(tt.d, tt.k))
		}
	}
}

func TestGraphK23NodeSet(t *testing.T) {
	// The full K(2,3) node set used throughout Section III-B of the paper.
	g, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []ID{
		"010", "012", "020", "021", "101", "102",
		"120", "121", "201", "202", "210", "212",
	}
	got := g.Nodes()
	if len(got) != len(want) {
		t.Fatalf("K(2,3) has %d nodes, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i] != id {
			t.Errorf("node[%d] = %q, want %q", i, got[i], id)
		}
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		u     ID
		succs []ID
		preds []ID
	}{
		{u: "012", succs: []ID{"120", "121"}, preds: []ID{"101", "201"}},
		{u: "201", succs: []ID{"010", "012"}, preds: []ID{"020", "120"}},
		{u: "121", succs: []ID{"210", "212"}, preds: []ID{"012", "212"}},
	}
	for _, tt := range tests {
		gotS := g.Successors(tt.u)
		if len(gotS) != len(tt.succs) {
			t.Fatalf("Successors(%s) = %v, want %v", tt.u, gotS, tt.succs)
		}
		for i := range tt.succs {
			if gotS[i] != tt.succs[i] {
				t.Errorf("Successors(%s)[%d] = %s, want %s", tt.u, i, gotS[i], tt.succs[i])
			}
		}
		gotP := g.Predecessors(tt.u)
		if len(gotP) != len(tt.preds) {
			t.Fatalf("Predecessors(%s) = %v, want %v", tt.u, gotP, tt.preds)
		}
		for i := range tt.preds {
			if gotP[i] != tt.preds[i] {
				t.Errorf("Predecessors(%s)[%d] = %s, want %s", tt.u, i, gotP[i], tt.preds[i])
			}
		}
	}
}

func TestSuccessorPredecessorDuality(t *testing.T) {
	g, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range g.Nodes() {
		for _, v := range g.Successors(u) {
			if !g.Contains(v) {
				t.Fatalf("successor %s of %s not in graph", v, u)
			}
			found := false
			for _, p := range g.Predecessors(v) {
				if p == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s not among predecessors of its successor %s", u, v)
			}
			if !g.HasArc(u, v) {
				t.Fatalf("HasArc(%s,%s) = false", u, v)
			}
		}
	}
}

func TestStronglyConnected(t *testing.T) {
	for _, cfg := range []struct{ d, k int }{{1, 2}, {2, 3}, {3, 3}, {4, 4}, {2, 5}} {
		g, err := New(cfg.d, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsStronglyConnected() {
			t.Errorf("K(%d,%d) not strongly connected", cfg.d, cfg.k)
		}
	}
}

func TestBFSDistanceMatchesIDDistance(t *testing.T) {
	// The greedy ID distance k − L(U,V) must equal the true shortest-path
	// distance in the digraph ("For any pair of nodes U-V, there exists
	// only a single shortest path, and its length is k − l").
	for _, cfg := range []struct{ d, k int }{{2, 3}, {3, 3}, {2, 4}} {
		g, err := New(cfg.d, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		for _, u := range nodes {
			for _, v := range nodes {
				bfs := g.BFSDistance(u, v)
				idDist := Distance(u, v)
				if bfs != idDist {
					t.Fatalf("K(%d,%d) %s→%s: BFS %d, ID distance %d",
						cfg.d, cfg.k, u, v, bfs, idDist)
				}
			}
		}
	}
}

func TestDiameterIsK(t *testing.T) {
	for _, cfg := range []struct{ d, k int }{{2, 3}, {3, 2}, {2, 4}} {
		g, err := New(cfg.d, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		maxDist := 0
		for _, u := range g.Nodes() {
			for _, v := range g.Nodes() {
				if d := g.BFSDistance(u, v); d > maxDist {
					maxDist = d
				}
			}
		}
		if maxDist != cfg.k {
			t.Errorf("K(%d,%d) diameter = %d, want %d", cfg.d, cfg.k, maxDist, cfg.k)
		}
	}
}

func TestHamiltonianCycle(t *testing.T) {
	for _, cfg := range []struct{ d, k int }{{1, 1}, {2, 1}, {2, 2}, {2, 3}, {3, 3}, {4, 3}, {2, 5}} {
		t.Run("", func(t *testing.T) {
			g, err := New(cfg.d, cfg.k)
			if err != nil {
				t.Fatal(err)
			}
			cycle, err := g.HamiltonianCycle()
			if err != nil {
				t.Fatalf("K(%d,%d): %v", cfg.d, cfg.k, err)
			}
			if len(cycle) != g.N() {
				t.Fatalf("K(%d,%d) cycle visits %d nodes, want %d", cfg.d, cfg.k, len(cycle), g.N())
			}
			seen := make(map[ID]bool, len(cycle))
			for i, u := range cycle {
				if seen[u] {
					t.Fatalf("K(%d,%d) cycle repeats %s", cfg.d, cfg.k, u)
				}
				seen[u] = true
				if !g.Contains(u) {
					t.Fatalf("K(%d,%d) cycle contains foreign node %s", cfg.d, cfg.k, u)
				}
				next := cycle[(i+1)%len(cycle)]
				if cfg.k > 1 && !IsSuccessor(u, next) {
					t.Fatalf("K(%d,%d) cycle edge %s→%s is not an arc", cfg.d, cfg.k, u, next)
				}
			}
		})
	}
}

func TestMinVertexCutEqualsDegree(t *testing.T) {
	// Lemma 3.1 / the d-disjoint-paths property [31]: between any two
	// distinct vertices of K(d, k) there are exactly d internally
	// vertex-disjoint paths, so the minimum vertex cut is d.
	for _, cfg := range []struct{ d, k int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		g, err := New(cfg.d, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		for i, u := range nodes {
			for j, v := range nodes {
				if i == j {
					continue
				}
				if cut := g.MinVertexCut(u, v); cut != cfg.d {
					t.Fatalf("K(%d,%d) MinVertexCut(%s,%s) = %d, want %d",
						cfg.d, cfg.k, u, v, cut, cfg.d)
				}
			}
		}
	}
}

func TestMinVertexCutDegenerate(t *testing.T) {
	g, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MinVertexCut("012", "012"); got != -1 {
		t.Errorf("MinVertexCut(u,u) = %d, want -1", got)
	}
	if got := g.MinVertexCut("012", "999"); got != -1 {
		t.Errorf("MinVertexCut to foreign node = %d, want -1", got)
	}
}

func TestMooreBound(t *testing.T) {
	tests := []struct {
		d, k int
		want int
	}{
		{2, 1, 3},
		{2, 2, 7},
		{2, 3, 15},
		{3, 2, 13},
	}
	for _, tt := range tests {
		if got := MooreBound(tt.d, tt.k); got != tt.want {
			t.Errorf("MooreBound(%d,%d) = %d, want %d", tt.d, tt.k, got, tt.want)
		}
	}
	// K(d,k) approaches the Moore bound as k decreases (Section III-B):
	// the node-count deficit ratio shrinks with smaller k.
	ratio := func(d, k int) float64 {
		return float64(NumNodes(d, k)) / float64(MooreBound(d, k))
	}
	if ratio(2, 2) <= ratio(2, 4) {
		t.Errorf("density ratio should grow as k shrinks: k=2 %f, k=4 %f", ratio(2, 2), ratio(2, 4))
	}
}

func TestGraphIndexAndContains(t *testing.T) {
	g, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Index("010") != 0 {
		t.Errorf("Index(010) = %d, want 0", g.Index("010"))
	}
	if g.Index("999") != -1 {
		t.Errorf("Index(foreign) = %d, want -1", g.Index("999"))
	}
	if g.Contains("300") {
		t.Error("Contains(300) = true for d=2")
	}
	// Nodes() must return a copy: mutating it must not corrupt the graph.
	nodes := g.Nodes()
	nodes[0] = "999"
	if g.Nodes()[0] != "010" {
		t.Error("Nodes() does not return a defensive copy")
	}
}
