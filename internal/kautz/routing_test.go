package kautz

import (
	"testing"
	"testing/quick"
)

func TestGreedyNext(t *testing.T) {
	tests := []struct {
		u, v    ID
		want    ID
		wantErr bool
	}{
		{u: "0123", v: "2301", want: "1230"},           // Figure 2(a) shortest hop
		{u: "12345", v: "34501", want: "23450"},        // Section III-C-1 example
		{u: "23450", v: "34501", want: "34501"},        // next step of the same example
		{u: "102", v: "201", want: "020"},              // Figure 1 intra-cell hop
		{u: "012", v: "012", want: "", wantErr: true},  // self
		{u: "012", v: "0123", want: "", wantErr: true}, // length mismatch
	}
	for _, tt := range tests {
		got, err := GreedyNext(tt.u, tt.v)
		if (err != nil) != tt.wantErr {
			t.Fatalf("GreedyNext(%s,%s) error = %v, wantErr %v", tt.u, tt.v, err, tt.wantErr)
		}
		if err == nil && got != tt.want {
			t.Errorf("GreedyNext(%s,%s) = %s, want %s", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	path, err := ShortestPath("12345", "34501")
	if err != nil {
		t.Fatal(err)
	}
	want := []ID{"12345", "23450", "34501"}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %s, want %s", i, path[i], want[i])
		}
	}
	self, err := ShortestPath("012", "012")
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 1 || self[0] != "012" {
		t.Fatalf("ShortestPath(u,u) = %v, want [u]", self)
	}
	if _, err := ShortestPath("012", "0123"); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// TestRoutesFigure2a reproduces the worked example of Section III-C-2:
// in K(4,4), node 0123 routes to 2301; the four disjoint paths have
// successors 1230 (shortest, len 2), 1232 (len k=4), 1234 (len k+1=5) and
// 1231 (conflict, len k+2=6).
func TestRoutesFigure2a(t *testing.T) {
	routes, err := Routes(4, "0123", "2301")
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 4 {
		t.Fatalf("got %d routes, want 4", len(routes))
	}
	want := []struct {
		succ   ID
		class  PathClass
		length int
	}{
		{succ: "1230", class: ClassShortest, length: 2},
		{succ: "1232", class: ClassViaV1, length: 4},
		{succ: "1234", class: ClassDetour, length: 5},
		{succ: "1231", class: ClassConflict, length: 6},
	}
	for i, w := range want {
		r := routes[i]
		if r.Successor != w.succ || r.Class != w.class || r.Len() != w.length {
			t.Errorf("routes[%d] = {succ %s class %s len %d}, want {%s %s %d}",
				i, r.Successor, r.Class, r.Len(), w.succ, w.class, w.length)
		}
		if r.NominalLen != w.length {
			t.Errorf("routes[%d].NominalLen = %d, want %d", i, r.NominalLen, w.length)
		}
		if !ValidWalk(r.Path) {
			t.Errorf("routes[%d].Path %v is not a valid Kautz walk", i, r.Path)
		}
		if r.Path[0] != "0123" || r.Path[len(r.Path)-1] != "2301" {
			t.Errorf("routes[%d].Path endpoints wrong: %v", i, r.Path)
		}
	}
	paths := make([][]ID, len(routes))
	for i, r := range routes {
		paths[i] = r.Path
	}
	if !InternallyDisjoint(paths) {
		t.Errorf("Figure 2(a) paths are not internally disjoint: %v", paths)
	}
	// The conflict path must honor Prop. 3.7: 1231 forwards to 2310
	// (in-digit v_{l+1} = 0), not greedily.
	conflict := routes[3]
	if conflict.Path[2] != "2310" {
		t.Errorf("conflict path divert hop = %s, want 2310 (Prop. 3.7)", conflict.Path[2])
	}
}

// TestRoutesFigure2b covers the U-V1 pair of Figure 2(b) where
// u_{k−l} == v_{l+1} (no conflict node): 0123 → 2310. Here l = 2 via suffix
// "23"; v_{l+1} = 1 = u_2, so the shortest out-digit is 1 and the remaining
// paths need no divert.
func TestRoutesFigure2b(t *testing.T) {
	routes, err := Routes(4, "0123", "2310")
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 4 {
		t.Fatalf("got %d routes, want 4", len(routes))
	}
	if routes[0].Class != ClassShortest || routes[0].Successor != "1231" {
		t.Fatalf("shortest route = %+v, want successor 1231", routes[0])
	}
	for _, r := range routes {
		if r.Class == ClassConflict {
			t.Errorf("no conflict route should exist when u_{k-l} == v_{l+1}, got %+v", r)
		}
	}
	paths := make([][]ID, len(routes))
	for i, r := range routes {
		paths[i] = r.Path
	}
	if !InternallyDisjoint(paths) {
		t.Errorf("Figure 2(b) paths are not internally disjoint: %v", paths)
	}
}

// TestRoutesViaV1InDigitCollision exercises the corner case missed by the
// paper (see DESIGN.md): u_{k−l} == u_k makes the via-v1 path's natural
// in-digit collide with the shortest path's. Our implementation diverts the
// via-v1 successor like a conflict node, restoring disjointness.
func TestRoutesViaV1InDigitCollision(t *testing.T) {
	// U = 0121, V = 2130 in K(4,4): l = 2 ("21"), u_{k−l} = u_2 = 1 = u_4.
	routes, err := Routes(4, "0121", "2130")
	if err != nil {
		t.Fatal(err)
	}
	paths := make([][]ID, len(routes))
	for i, r := range routes {
		paths[i] = r.Path
	}
	if !InternallyDisjoint(paths) {
		t.Fatalf("collision corner case yields intersecting paths: %v", paths)
	}
	var viaV1 *Route
	for i := range routes {
		if routes[i].Class == ClassViaV1 {
			viaV1 = &routes[i]
		}
	}
	if viaV1 == nil {
		t.Fatal("expected a via-v1 route")
	}
	if viaV1.NominalLen != 4+2 {
		t.Errorf("diverted via-v1 nominal length = %d, want k+2 = 6", viaV1.NominalLen)
	}
}

func TestRoutesErrors(t *testing.T) {
	if _, err := Routes(4, "0123", "0123"); err == nil {
		t.Error("Routes(u,u) should error")
	}
	if _, err := Routes(4, "0123", "012"); err == nil {
		t.Error("Routes with length mismatch should error")
	}
	if _, err := Routes(2, "0123", "2301"); err == nil {
		t.Error("Routes with digits above degree should error")
	}
	if _, err := Routes(2, "011", "201"); err == nil {
		t.Error("Routes with malformed ID should error")
	}
}

func TestNextHops(t *testing.T) {
	hops, err := NextHops(4, "0123", "2301")
	if err != nil {
		t.Fatal(err)
	}
	want := []ID{"1230", "1232", "1234", "1231"}
	if len(hops) != len(want) {
		t.Fatalf("NextHops = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("NextHops[%d] = %s, want %s", i, hops[i], want[i])
		}
	}
}

// TestRoutesExhaustive verifies, for every ordered pair of distinct nodes in
// several graphs, the full Theorem 3.8 contract:
//   - exactly d routes with d distinct successors,
//   - every concrete path is a valid walk from U to V,
//   - paths are internally vertex-disjoint,
//   - exactly one shortest route of length k − l,
//   - concrete lengths never exceed the nominal Theorem 3.8 lengths and the
//     non-shortest ones are ≤ k+2.
func TestRoutesExhaustive(t *testing.T) {
	configs := []struct{ d, k int }{{2, 2}, {2, 3}, {3, 3}, {3, 2}, {4, 2}, {4, 3}, {4, 4}, {2, 4}, {3, 4}}
	if testing.Short() {
		configs = configs[:3]
	}
	for _, cfg := range configs {
		g, err := New(cfg.d, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		pairs, disjointPairs := 0, 0
		for _, u := range nodes {
			for _, v := range nodes {
				if u == v {
					continue
				}
				pairs++
				routes, err := Routes(cfg.d, u, v)
				if err != nil {
					t.Fatalf("Routes(%d,%s,%s): %v", cfg.d, u, v, err)
				}
				if len(routes) != cfg.d {
					t.Fatalf("K(%d,%d) %s→%s: %d routes, want %d", cfg.d, cfg.k, u, v, len(routes), cfg.d)
				}
				succs := make(map[ID]bool, cfg.d)
				shortest := 0
				paths := make([][]ID, 0, cfg.d)
				for _, r := range routes {
					if succs[r.Successor] {
						t.Fatalf("K(%d,%d) %s→%s: duplicate successor %s", cfg.d, cfg.k, u, v, r.Successor)
					}
					succs[r.Successor] = true
					if !ValidWalk(r.Path) {
						t.Fatalf("K(%d,%d) %s→%s: invalid walk %v", cfg.d, cfg.k, u, v, r.Path)
					}
					if r.Path[0] != u || r.Path[len(r.Path)-1] != v {
						t.Fatalf("K(%d,%d) %s→%s: wrong endpoints %v", cfg.d, cfg.k, u, v, r.Path)
					}
					if r.Class == ClassShortest {
						shortest++
						if r.Len() != Distance(u, v) {
							t.Fatalf("K(%d,%d) %s→%s: shortest len %d, want %d",
								cfg.d, cfg.k, u, v, r.Len(), Distance(u, v))
						}
					} else {
						if r.Len() > cfg.k+2 {
							t.Fatalf("K(%d,%d) %s→%s: route len %d exceeds k+2", cfg.d, cfg.k, u, v, r.Len())
						}
					}
					if r.Len() > r.NominalLen {
						t.Fatalf("K(%d,%d) %s→%s via %s: concrete len %d exceeds nominal %d",
							cfg.d, cfg.k, u, v, r.Successor, r.Len(), r.NominalLen)
					}
					paths = append(paths, r.Path)
				}
				if shortest != 1 {
					t.Fatalf("K(%d,%d) %s→%s: %d shortest routes, want 1", cfg.d, cfg.k, u, v, shortest)
				}
				if InternallyDisjoint(paths) {
					disjointPairs++
				}
			}
		}
		if disjointPairs != pairs {
			t.Errorf("K(%d,%d): only %d/%d pairs have fully disjoint route sets",
				cfg.d, cfg.k, disjointPairs, pairs)
		}
	}
}

// TestRoutesNominalLengthAccuracy records how often the concrete greedy path
// length equals the nominal Theorem 3.8 length. Digit coincidences can only
// shorten paths, never lengthen them; the shortest route is always exact.
func TestRoutesNominalLengthAccuracy(t *testing.T) {
	g, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	total, exact := 0, 0
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			routes, err := Routes(3, u, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range routes {
				total++
				if r.Len() == r.NominalLen {
					exact++
				}
				if r.Class == ClassShortest && r.Len() != r.NominalLen {
					t.Fatalf("shortest route %s→%s has len %d != nominal %d", u, v, r.Len(), r.NominalLen)
				}
			}
		}
	}
	if exact < total*9/10 {
		t.Errorf("only %d/%d routes match nominal lengths; expected the vast majority", exact, total)
	}
	t.Logf("nominal length exact for %d/%d routes (%.1f%%)", exact, total, 100*float64(exact)/float64(total))
}

func TestQuickRoutesContract(t *testing.T) {
	// Property test over random pairs in K(4,5): every route set has d
	// valid, endpoint-correct, internally disjoint walks.
	f := func(s1, s2 []byte) bool {
		const d, k = 4, 5
		u := randomKautzID(d, k, s1)
		v := randomKautzID(d, k, s2)
		if u == v {
			return true
		}
		routes, err := Routes(d, u, v)
		if err != nil || len(routes) != d {
			return false
		}
		paths := make([][]ID, len(routes))
		for i, r := range routes {
			if !ValidWalk(r.Path) || r.Path[0] != u || r.Path[len(r.Path)-1] != v {
				return false
			}
			paths[i] = r.Path
		}
		return InternallyDisjoint(paths)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInternallyDisjoint(t *testing.T) {
	tests := []struct {
		name  string
		paths [][]ID
		want  bool
	}{
		{
			name:  "disjoint",
			paths: [][]ID{{"a", "b", "c"}, {"a", "d", "c"}},
			want:  true,
		},
		{
			name:  "shared internal",
			paths: [][]ID{{"a", "b", "c"}, {"a", "b", "c"}},
			want:  false,
		},
		{
			name:  "direct arcs only",
			paths: [][]ID{{"a", "c"}, {"a", "c"}},
			want:  true,
		},
		{
			name:  "empty",
			paths: nil,
			want:  true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InternallyDisjoint(tt.paths); got != tt.want {
				t.Fatalf("InternallyDisjoint = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPathClassString(t *testing.T) {
	tests := []struct {
		c    PathClass
		want string
	}{
		{ClassShortest, "shortest"},
		{ClassConflict, "conflict"},
		{ClassViaV1, "via-v1"},
		{ClassDetour, "detour"},
		{PathClass(99), "PathClass(99)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

func TestValidWalk(t *testing.T) {
	if !ValidWalk([]ID{"0123", "1230", "2301"}) {
		t.Error("valid walk rejected")
	}
	if ValidWalk([]ID{"0123", "2301"}) {
		t.Error("invalid walk accepted")
	}
	if !ValidWalk([]ID{"0123"}) {
		t.Error("single-node walk rejected")
	}
	if !ValidWalk(nil) {
		t.Error("empty walk rejected")
	}
}
