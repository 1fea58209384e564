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
// precomputed; callers fall back to the direct Routes computation.
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
// The table is immutable after construction and safe for concurrent use;
// the hit/miss counters are atomic.
type RouteTable struct {
	d, k    int
	entries map[pairKey][]Route
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type pairKey struct{ u, v ID }

// tableKey identifies a process-wide shared table.
type tableKey struct{ d, k int }

// tableSlot holds one lazily built shared table. The table pointer is
// atomic so AllTableCounters can snapshot concurrently with a first build;
// err is only read after once.Do returns, which orders it.
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
	if !ok {
		t.misses.Add(1)
		return nil, false
	}
	t.hits.Add(1)
	return routes[:len(routes):len(routes)], true
}

// TableCounters is a snapshot of one shared table's effectiveness counters.
type TableCounters struct {
	// Degree and Diameter identify the graph K(d, k).
	Degree, Diameter int
	// Hits and Misses count lookups served from / not covered by the table
	// since process start.
	Hits, Misses uint64
	// Pairs is the number of precomputed ordered pairs.
	Pairs int
}

// String renders the counters as a one-line report.
func (c TableCounters) String() string {
	total := c.Hits + c.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(c.Hits) / float64(total)
	}
	return fmt.Sprintf("K(%d,%d): %d pairs, %d hits / %d misses (%.1f%% hit rate)",
		c.Degree, c.Diameter, c.Pairs, c.Hits, c.Misses, pct)
}

// Counters returns a snapshot of the table's lookup counters.
func (t *RouteTable) Counters() TableCounters {
	return TableCounters{
		Degree:   t.d,
		Diameter: t.k,
		Hits:     t.hits.Load(),
		Misses:   t.misses.Load(),
		Pairs:    len(t.entries),
	}
}

// AllTableCounters snapshots the counters of every table built so far in
// this process, ordered by (degree, diameter).
func AllTableCounters() []TableCounters {
	tableMu.Lock()
	keys := make([]tableKey, 0, len(tableReg))
	slots := make(map[tableKey]*tableSlot, len(tableReg))
	for k, s := range tableReg {
		keys = append(keys, k)
		slots[k] = s
	}
	tableMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].d != keys[j].d {
			return keys[i].d < keys[j].d
		}
		return keys[i].k < keys[j].k
	})
	out := make([]TableCounters, 0, len(keys))
	for _, k := range keys {
		// A slot whose build has not completed yet (or failed) has no table.
		if t := slots[k].table.Load(); t != nil {
			out = append(out, t.Counters())
		}
	}
	return out
}
