package kautz

import (
	"strings"
	"testing"
)

// FuzzParseID pins the parse/format round-trip: every accepted string
// formats back to itself and re-parses, and every rejection is re-derivable
// from the documented grammar (non-empty ASCII digits, no adjacent
// repeats), so ParseID never silently normalizes or over-rejects.
func FuzzParseID(f *testing.F) {
	for _, seed := range []string{
		"", "0", "9", "00", "012", "0120", "01210", "121212",
		"0123456789", "a", "01a", "-12", "1 2", "０１２", "012\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseID(s)
		malformed := s == ""
		for i := 0; i < len(s) && !malformed; i++ {
			if s[i] < '0' || s[i] > '9' || (i > 0 && s[i] == s[i-1]) {
				malformed = true
			}
		}
		if err != nil {
			if !malformed {
				t.Fatalf("ParseID(%q) rejected a well-formed ID: %v", s, err)
			}
			return
		}
		if malformed {
			t.Fatalf("ParseID(%q) accepted a malformed ID", s)
		}
		if id.String() != s {
			t.Fatalf("round-trip: ParseID(%q).String() = %q", s, id.String())
		}
		if _, err := ParseID(id.String()); err != nil {
			t.Fatalf("re-parse of %q failed: %v", id.String(), err)
		}
		// The digit-wise constructor agrees with the string parser.
		digits := make([]int, id.Len())
		for i := range digits {
			digits[i] = id.At(i)
		}
		made, err := MakeID(digits...)
		if err != nil {
			t.Fatalf("MakeID(%v) rejected digits of accepted %q: %v", digits, s, err)
		}
		if made != id {
			t.Fatalf("MakeID(%v) = %q, want %q", digits, made, id)
		}
		if !id.Valid(MaxDegree, id.Len()) {
			t.Fatalf("accepted %q is not Valid(%d, %d)", s, MaxDegree, id.Len())
		}
	})
}

// FuzzGraphIndex pins the arithmetic rank against the grammar: for any
// string, Index finds it exactly when it is a node of K(d, k) — ParseID
// accepts it, its length is k and no digit is above d — and then the node
// list holds it at that index.
func FuzzGraphIndex(f *testing.F) {
	for _, seed := range []struct {
		d uint8
		s string
	}{
		{1, "010"}, {2, "012"}, {2, "212"}, {2, "013"}, {2, "011"}, {3, "3030"},
		{4, "0123"}, {8, "9"}, {8, "989"}, {2, ""}, {2, "0"}, {2, "01201"}, {2, "0/1"}, {2, "0:1"},
	} {
		f.Add(seed.d, seed.s)
	}
	const maxK = 4
	var graphs [MaxDegree + 1][maxK + 1]*Graph
	for d := 1; d <= MaxDegree; d++ {
		for k := 1; k <= maxK; k++ {
			g, err := New(d, k)
			if err != nil {
				f.Fatal(err)
			}
			graphs[d][k] = g
		}
	}
	f.Fuzz(func(t *testing.T, dd uint8, s string) {
		d := 1 + int(dd)%MaxDegree
		k := len(s)
		if k < 1 || k > maxK {
			k = 3
		}
		g := graphs[d][k]
		_, err := ParseID(s)
		isNode := err == nil && len(s) == k
		for i := 0; isNode && i < len(s); i++ {
			isNode = int(s[i]-'0') <= d
		}
		i := g.Index(ID(s))
		if (i >= 0) != isNode || g.Contains(ID(s)) != isNode {
			t.Fatalf("K(%d,%d): Index(%q) = %d, Contains = %v, but node = %v", d, k, s, i, g.Contains(ID(s)), isNode)
		}
		if isNode && g.nodes[i] != ID(s) {
			t.Fatalf("K(%d,%d): Index(%q) = %d holds %q", d, k, s, i, g.nodes[i])
		}
	})
}

// FuzzDisjointPaths pins Theorem 3.8 over arbitrary (d, u, v): the route
// set must contain exactly d routes whose concrete paths are simple, valid
// Kautz walks from u to v, with distinct successors and internal
// disjointness — VerifyRoutes is the shared oracle.
func FuzzDisjointPaths(f *testing.F) {
	f.Add(2, "012", "201")   // the paper's K(2,3) cell graph
	f.Add(2, "010", "101")   // periodic IDs exercise the loop-erasure
	f.Add(2, "012", "120")   // maximal overlap (shortest path length 1)
	f.Add(3, "0123", "2301") // conflict-node clause
	f.Add(4, "0123", "2301") // the paper's Figure 2(a) example
	f.Add(4, "0404", "4040") // u_{k−l} == u_k corner case
	f.Add(9, "090909", "909090")
	f.Add(3, "01", "12") // k=2, minimal length
	f.Fuzz(func(t *testing.T, d int, us, vs string) {
		if d < 2 || d > MaxDegree {
			t.Skip()
		}
		u, err := ParseID(us)
		if err != nil {
			t.Skip()
		}
		v, err := ParseID(vs)
		if err != nil {
			t.Skip()
		}
		k := u.Len()
		// Bound k so the fuzzer spends its budget on structure, not size.
		if k < 2 || k > 6 || v.Len() != k || u == v {
			t.Skip()
		}
		if !u.Valid(d, k) || !v.Valid(d, k) {
			t.Skip()
		}
		routes, err := Routes(d, u, v)
		if err != nil {
			t.Fatalf("Routes(%d, %s, %s): %v", d, u, v, err)
		}
		if err := VerifyRoutes(d, u, v, routes); err != nil {
			t.Fatal(err)
		}
		// The sort contract: concrete lengths are non-decreasing.
		for i := 1; i < len(routes); i++ {
			if routes[i-1].Len() > routes[i].Len() {
				t.Fatalf("routes not sorted by length: %v", routes)
			}
		}
	})
}

// TestVerifyRoutesRejects gives the oracle itself coverage: corrupted route
// sets must be caught.
func TestVerifyRoutesRejects(t *testing.T) {
	routes, err := Routes(2, "012", "201")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRoutes(2, "012", "201", routes); err != nil {
		t.Fatalf("sound set rejected: %v", err)
	}
	corrupt := func(name string, mutate func([]Route) []Route) {
		t.Run(name, func(t *testing.T) {
			cp := make([]Route, len(routes))
			for i, r := range routes {
				cp[i] = r
				cp[i].Path = append([]ID(nil), r.Path...)
			}
			cp = mutate(cp)
			if err := VerifyRoutes(2, "012", "201", cp); err == nil {
				t.Fatal("corrupted route set passed verification")
			} else if !strings.HasPrefix(err.Error(), "kautz:") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
	corrupt("missing-route", func(rs []Route) []Route { return rs[:1] })
	corrupt("wrong-terminus", func(rs []Route) []Route {
		rs[0].Path[len(rs[0].Path)-1] = "120"
		return rs
	})
	corrupt("broken-walk", func(rs []Route) []Route {
		longest := 0
		for i, r := range rs {
			if r.Len() > rs[longest].Len() {
				longest = i
			}
		}
		rs[longest].Path[1], rs[longest].Path[0] = rs[longest].Path[0], rs[longest].Path[1]
		return rs
	})
	corrupt("duplicate-successor", func(rs []Route) []Route {
		rs[1] = rs[0]
		return rs
	})
}
