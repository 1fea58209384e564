package kautz

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// maxTablePairs bounds the size of a precomputed route table: K(2,3) has
// 132 ordered pairs, K(3,3) 1,260, K(4,3) 6,320. Graphs whose ordered-pair
// count exceeds the bound (e.g. K(4,4) with 102,080 pairs) are not
// precomputed; the Kautz-overlay baseline, whose graph grows with the
// deployment, then falls back to the direct Routes computation.
const maxTablePairs = 50_000

// RouteTable is an immutable precomputed map from every ordered node pair
// (U, V) of a complete Kautz graph K(d, k) to its Theorem 3.8 route set —
// exactly what Routes(d, u, v) returns, computed once per process instead
// of on every forwarding decision.
//
// Faber & Streib observe that Kautz routing is regular enough to tabulate
// outright; a K(d,3) cell has at most a few dozen nodes, so the whole table
// is tiny while the per-relay saving (script building, window walking,
// sorting, ~20 allocations) is paid on REFER's hottest path.
//
// Nothing in the table is written after buildTable returns, so concurrent
// runs share it without synchronization; how often a run consulted it is
// that run's own count (experiment.WorkStats.RouteTableHits).
type RouteTable struct {
	d, k    int
	entries map[pairKey][]Route
}

type pairKey struct{ u, v ID }

// tableKey identifies a process-wide shared table.
type tableKey struct{ d, k int }

// tableSlot holds one lazily built shared table. The table pointer is
// atomic so Tables can snapshot concurrently with a first build; err is
// only read after once.Do returns, which orders it.
type tableSlot struct {
	once  sync.Once
	table atomic.Pointer[RouteTable]
	err   error
}

var (
	tableMu  sync.Mutex
	tableReg = make(map[tableKey]*tableSlot)
)

// TableFor returns the process-wide shared route table of K(d, k), building
// it on first use (behind a per-graph sync.Once, so concurrent callers and
// parallel simulation runs share one table and one construction). It
// returns an error when the graph is invalid or too large to precompute
// (more than maxTablePairs ordered pairs).
func TableFor(d, k int) (*RouteTable, error) {
	if d < 1 || d > MaxDegree {
		return nil, fmt.Errorf("kautz: table degree d=%d out of range [1,%d]", d, MaxDegree)
	}
	if k < 1 {
		return nil, fmt.Errorf("kautz: table diameter k=%d must be >= 1", k)
	}
	if n := NumNodes(d, k); n*(n-1) > maxTablePairs {
		return nil, fmt.Errorf("kautz: K(%d,%d) has %d ordered pairs, above the %d precompute bound",
			d, k, n*(n-1), maxTablePairs)
	}
	key := tableKey{d: d, k: k}
	tableMu.Lock()
	slot, ok := tableReg[key]
	if !ok {
		slot = &tableSlot{}
		tableReg[key] = slot
	}
	tableMu.Unlock()
	slot.once.Do(func() {
		t, err := buildTable(d, k)
		if err != nil {
			slot.err = err
			return
		}
		slot.table.Store(t)
	})
	if t := slot.table.Load(); t != nil {
		return t, nil
	}
	return nil, slot.err
}

// buildTable precomputes Routes(d, u, v) for every ordered node pair.
func buildTable(d, k int) (*RouteTable, error) {
	g, err := New(d, k)
	if err != nil {
		return nil, err
	}
	nodes := g.Nodes()
	t := &RouteTable{
		d:       d,
		k:       k,
		entries: make(map[pairKey][]Route, len(nodes)*(len(nodes)-1)),
	}
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			routes, err := Routes(d, u, v)
			if err != nil {
				return nil, fmt.Errorf("kautz: table K(%d,%d): %w", d, k, err)
			}
			t.entries[pairKey{u: u, v: v}] = routes
		}
	}
	return t, nil
}

// Degree returns d.
func (t *RouteTable) Degree() int { return t.d }

// Diameter returns k.
func (t *RouteTable) Diameter() int { return t.k }

// Size returns the number of precomputed ordered pairs.
func (t *RouteTable) Size() int { return len(t.entries) }

// Routes returns the Theorem 3.8 route set for the ordered pair (u, v) and
// whether the table covers the pair (u == v and foreign IDs report false).
// The returned slice is the table's own entry, shared by every caller in the
// process: it and the Path slices inside it are read-only. A caller that
// reorders routes — the router's equal-length shuffle — copies them into a
// buffer it owns first. Capacity is clipped so an append cannot write into
// the table either.
func (t *RouteTable) Routes(u, v ID) ([]Route, bool) {
	routes, ok := t.entries[pairKey{u: u, v: v}]
	return routes[:len(routes):len(routes)], ok
}

// Tables lists every table built so far in this process, ordered by
// (degree, diameter).
func Tables() []*RouteTable {
	tableMu.Lock()
	out := make([]*RouteTable, 0, len(tableReg))
	for _, slot := range tableReg {
		// A slot whose build has not completed yet (or failed) has no table.
		if t := slot.table.Load(); t != nil {
			out = append(out, t)
		}
	}
	tableMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].k < out[j].k
	})
	return out
}
