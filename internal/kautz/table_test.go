package kautz

import (
	"reflect"
	"sync"
	"testing"
)

// TestTableEquivalence checks that the precomputed table returns exactly
// what the direct Theorem 3.8 computation returns for every ordered node
// pair of K(2,3) and K(3,3).
func TestTableEquivalence(t *testing.T) {
	for _, cfg := range []struct{ d, k int }{{2, 3}, {3, 3}} {
		table, err := TableFor(cfg.d, cfg.k)
		if err != nil {
			t.Fatalf("TableFor(%d,%d): %v", cfg.d, cfg.k, err)
		}
		g, err := New(cfg.d, cfg.k)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		for _, u := range nodes {
			for _, v := range nodes {
				if u == v {
					continue
				}
				direct, err := Routes(cfg.d, u, v)
				if err != nil {
					t.Fatalf("Routes(%d, %s, %s): %v", cfg.d, u, v, err)
				}
				cached, ok := table.Routes(u, v)
				if !ok {
					t.Fatalf("K(%d,%d) table misses pair %s→%s", cfg.d, cfg.k, u, v)
				}
				if !reflect.DeepEqual(direct, cached) {
					t.Fatalf("K(%d,%d) %s→%s: table %v != direct %v", cfg.d, cfg.k, u, v, cached, direct)
				}
			}
		}
	}
}

// TestTableViewIsShared pins the read-only-view contract: a lookup hands out
// the table's own entry — the same backing array every time, clipped so an
// append reallocates instead of writing into the table — and allocates
// nothing. (That no router ever writes through the view is checked where
// the routers live: core's TestRouterNeverMutatesTable.)
func TestTableViewIsShared(t *testing.T) {
	table, err := TableFor(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	u, v := ID("021"), ID("201")
	first, ok := table.Routes(u, v)
	second, ok2 := table.Routes(u, v)
	if !ok || !ok2 || len(first) == 0 {
		t.Fatalf("pair %s→%s not in table", u, v)
	}
	if &first[0] != &second[0] {
		t.Fatal("two lookups of one pair returned different backing arrays: Routes copies on read again")
	}
	if cap(first) != len(first) {
		t.Fatalf("view has spare capacity (len %d, cap %d): an append would write into the table", len(first), cap(first))
	}
	if allocs := testing.AllocsPerRun(100, func() { table.Routes(u, v) }); allocs != 0 {
		t.Fatalf("Routes allocates %.0f times per lookup, want 0", allocs)
	}
}

// TestTableSharedPerDegree checks the process-wide sharing contract: two
// TableFor calls for the same K(d,k) return the same table.
func TestTableSharedPerDegree(t *testing.T) {
	a, err := TableFor(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableFor(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("TableFor(2,3) returned two distinct tables")
	}
}

// TestTableCounters checks what a table reports about its coverage: every
// ordered pair of distinct nodes, nothing else. (Lookups are counted per
// run, in experiment.WorkStats, not on the shared table.)
func TestTableCounters(t *testing.T) {
	table, err := TableFor(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Routes("012", "120"); !ok {
		t.Fatal("a K(2,3) pair should be covered")
	}
	if routes, ok := table.Routes("012", "012"); ok || routes != nil {
		t.Fatal("u == v should not be covered")
	}
	if _, ok := table.Routes("0123", "1230"); ok {
		t.Fatal("foreign IDs should not be covered")
	}
	for _, foreign := range []ID{"01", "013", "011", "310", "0a1"} {
		if routes, ok := table.Routes(foreign, "012"); ok || routes != nil {
			t.Fatalf("%q is no K(2,3) node but is covered as a source", foreign)
		}
		if routes, ok := table.Routes("012", foreign); ok || routes != nil {
			t.Fatalf("%q is no K(2,3) node but is covered as a destination", foreign)
		}
	}
	g, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, u := range g.Nodes() {
		for _, v := range g.Nodes() {
			if _, ok := table.Routes(u, v); ok {
				pairs++
			}
		}
	}
	if pairs != 132 {
		t.Fatalf("K(2,3) covered pairs = %d, want 132", pairs)
	}
}

// TestTableInvalid checks the rejection paths: bad parameters, graphs
// above the precompute bound, and graphs whose pair count would overflow an
// int (K(2,70) has 3·2^69 nodes; its order is refused before it is squared).
func TestTableInvalid(t *testing.T) {
	if _, err := TableFor(0, 3); err == nil {
		t.Fatal("degree 0 should fail")
	}
	if _, err := TableFor(2, 0); err == nil {
		t.Fatal("diameter 0 should fail")
	}
	if _, err := TableFor(4, 4); err == nil {
		t.Fatal("K(4,4) (102,080 pairs) should be above the precompute bound")
	}
	if _, err := TableFor(2, 70); err == nil {
		t.Fatal("K(2,70) should be refused")
	}
}

// TestTableConcurrentAccess hammers one shared table from many goroutines;
// the race detector (CI runs go test -race) verifies the concurrency
// contract.
func TestTableConcurrentAccess(t *testing.T) {
	g, err := New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table, err := TableFor(2, 3)
			if err != nil {
				t.Error(err)
				return
			}
			for _, u := range nodes {
				for _, v := range nodes {
					if u == v {
						continue
					}
					routes, ok := table.Routes(u, v)
					if !ok || len(routes) != 2 {
						t.Errorf("%s→%s: ok=%v routes=%d", u, v, ok, len(routes))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
