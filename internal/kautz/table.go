package kautz

import (
	"fmt"
	"sync"
)

// maxTablePairs bounds the size of a precomputed route table: K(2,3) has
// 132 ordered pairs, K(3,3) 1,260, K(4,3) 6,320. Graphs whose ordered-pair
// count exceeds the bound (e.g. K(4,4) with 102,080 pairs) are not
// precomputed; the Kautz-overlay baseline, whose graph grows with the
// deployment, then falls back to the direct Routes computation.
const maxTablePairs = 50_000

// RouteTable is an immutable precomputed table from every ordered node pair
// (U, V) of a complete Kautz graph K(d, k) to its Theorem 3.8 route set —
// exactly what Routes(d, u, v) returns, computed once per process instead
// of on every forwarding decision.
//
// Faber & Streib observe that Kautz routing is regular enough to tabulate
// outright; a K(d,3) cell has at most a few dozen nodes, so the whole table
// is tiny while the per-relay saving (script building, window walking,
// sorting, ~20 allocations) is paid on REFER's hottest path. A pair is found
// by arithmetic: the two IDs' ranks in the graph's node list index one
// dense slice.
//
// Nothing in the table is written after buildTable returns, so concurrent
// runs share it without synchronization; how often a run consulted it is
// that run's own count (experiment.WorkStats.RouteTableHits).
type RouteTable struct {
	g       *Graph
	entries [][]Route // Index(u)*N + Index(v); nil on the diagonal
}

// tables holds one lazily built table per (d, k), shared by the process.
var (
	tablesMu sync.Mutex
	tables   = make(map[[2]int]func() (*RouteTable, error))
)

// TableFor returns the process-wide shared route table of K(d, k), building
// it on first use (behind a per-graph sync.OnceValues, so concurrent callers
// and parallel simulation runs share one table and one construction). It
// returns an error when the graph is invalid or too large to precompute
// (more than maxTablePairs ordered pairs).
func TableFor(d, k int) (*RouteTable, error) {
	n, err := order(d, k)
	if err != nil {
		return nil, err
	}
	if n*(n-1) > maxTablePairs {
		return nil, fmt.Errorf("kautz: K(%d,%d) has %d ordered pairs, above the %d precompute bound",
			d, k, n*(n-1), maxTablePairs)
	}
	key := [2]int{d, k}
	tablesMu.Lock()
	build, ok := tables[key]
	if !ok {
		build = sync.OnceValues(func() (*RouteTable, error) { return buildTable(d, k) })
		tables[key] = build
	}
	tablesMu.Unlock()
	return build()
}

// buildTable precomputes Routes(d, u, v) for every ordered node pair.
func buildTable(d, k int) (*RouteTable, error) {
	g, err := New(d, k)
	if err != nil {
		return nil, err
	}
	t := &RouteTable{g: g, entries: make([][]Route, len(g.nodes)*len(g.nodes))}
	for i, u := range g.nodes {
		for j, v := range g.nodes {
			if i == j {
				continue
			}
			routes, err := Routes(d, u, v)
			if err != nil {
				return nil, fmt.Errorf("kautz: table K(%d,%d): %w", d, k, err)
			}
			t.entries[i*len(g.nodes)+j] = routes
		}
	}
	return t, nil
}

// Routes returns the Theorem 3.8 route set for the ordered pair (u, v) and
// whether the table covers the pair (u == v and foreign IDs report false).
// The returned slice is the table's own entry, shared by every caller in the
// process: it and the Path slices inside it are read-only. A caller that
// reorders routes — the router's equal-length shuffle — copies them into a
// buffer it owns first. Capacity is clipped so an append cannot write into
// the table either.
func (t *RouteTable) Routes(u, v ID) ([]Route, bool) {
	i, j := t.g.Index(u), t.g.Index(v)
	if i < 0 || j < 0 || i == j {
		return nil, false
	}
	routes := t.entries[i*len(t.g.nodes)+j]
	return routes[:len(routes):len(routes)], true
}
