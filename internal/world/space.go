package world

import (
	"math"
	"math/bits"
	"time"

	"refer/internal/geo"
	"refer/internal/mobility"
)

// space is the world's spatial layer: where each node is at the current
// virtual time and who is within range of whom. The world calls it once per
// query. Every range test it makes is p.Dist(q) <= r, the test InRange and
// Send make. Neighborhoods are in ascending NodeID order: a node's ID says
// nothing about where it is, so the order that decides BFS ties, flood
// parents and relay choice has no geometric bias. The slices it returns are
// borrowed (see World.Neighbors).
type space interface {
	// grow makes room for n more nodes (World.Grow).
	grow(n int)
	// add registers the world's newest node.
	add(n *Node)
	// position returns id's position now.
	position(id NodeID) geo.Point
	// neighbors returns the nodes sharing a usable link with from now,
	// failed ones included unless alive is set.
	neighbors(from NodeID, alive bool) []NodeID
	// carrierSense defers every node inside from's own range now, failed
	// or not, until end: from's carrier-sense set.
	carrierSense(from NodeID, end time.Duration)
	// nearestActuator returns the closest alive actuator to from, the lowest
	// ID on ties, or NoNode.
	nearestActuator(from NodeID) NodeID
}

// newSpace builds the spatial layer New gives a world. The package's tests
// replace it with a brute-force twin.
var newSpace = func(w *World) space { return &gridSpace{w: w} }

// gridCell is the spatial index's cell size in meters. Queries read each
// row of cells only as far as the circle's chord reaches, so cells a
// quarter of the 100 m sensor range fit the circle more tightly than
// range-sized ones: on the refer_heavy workload a query visits 224 entries
// at 25 m against 291 at 50 m.
const gridCell = 25.0

// indexGrid returns an empty grid over region, with cells shrunk for small
// regions — considering both dimensions, so a tall narrow region gets cells
// matched to its thin axis instead of one degenerate column.
func indexGrid(region geo.Rect) *geo.Grid {
	cell := gridCell
	if m := math.Min(region.Width(), region.Height()); m < 4*gridCell {
		cell = m / 4
	}
	return geo.NewGrid(region, cell)
}

// gridStaleTol is the position-staleness tolerance in meters: the spatial
// index is rebuilt only once any node can have moved this far since the
// grid's positions were sampled. Queries add the current staleness bound to
// their radius as slack and re-check candidates exactly, so the tolerance
// trades rebuild frequency against candidate-set width without ever
// changing results. 10 m is the measured sweet spot on the paper's default
// scenario (at its 5 m/s speed cap that is one rebuild per 2 virtual
// seconds instead of one per event); larger values save few rebuilds while
// widening every query's candidate ring.
const gridStaleTol = 10.0

// senseGuard is the margin, in meters, by which carrier sense's inner
// radius stays clear of the staleness bound: it absorbs float rounding and
// the nanosecond rounding of leg durations, either of which can carry a node
// a hair past maxSpeed·Δt from its indexed position.
const senseGuard = 1e-3

// gridSpace is the production spatial layer: a position table, a grid
// index rebuilt once per staleness epoch, and per-node neighbor caches. It
// keeps the world's spatial-index counters in w.stats.
type gridSpace struct {
	w *World

	// kin is the position table, indexed by NodeID: a neighbor rebuild
	// reads its candidates from here without touching their Nodes.
	kin []kinematics

	// Spatial index. The grid is allocated once and rebuilt in place
	// (Reset+Insert) only when accumulated mobility can have displaced some
	// node by more than gridStaleTol meters — the position-staleness epoch.
	// Queries stay exact regardless: the stale index is only a candidate
	// generator (radii get the staleness as slack) and every candidate is
	// re-checked against its exact position at the current virtual time.
	grid   *geo.Grid
	gridAt time.Duration // virtual time the grid positions were sampled
	gridOK bool

	// actuators is the maintained actuator index nearestActuator scans
	// instead of the full node list.
	actuators []NodeID

	// Per-node neighbor caches, valid for the cache epoch they were filled
	// in, with the alive subset additionally keyed by the world's aliveGen.
	// Their lists are carved from arena, which epoch reclaims whole.
	caches  []nodeCache
	arena   idArena
	topoGen uint64 // bumped by add
	// The current cache epoch: its number, and the topoGen and virtual time
	// it began at.
	epochN   uint64
	epochGen uint64
	epochAt  time.Duration
	// scratch holds a cache fill's grid candidates or a carrier-sense
	// scan's inner ones, band the scan's band; both are dead between calls.
	scratch []int
	band    []int
	// order puts a fill's survivors in NodeID order; it is all zero
	// between fills.
	order idBitmap
}

// idBitmap is a set of node IDs: one bit per node in 64-bit words, and one
// summary bit per word that is set while the word is nonzero. set marks an
// ID and has tests one. drain reads the marked IDs back in ascending order
// and reset forgets them. Both clear only the words the summary marks and
// leave the bitmap all zero: a drain costs one step per ID, a reset one per
// marked word, each plus one summary word per 4 096 nodes.
type idBitmap struct {
	words   []uint64 // bit id%64 of words[id/64] marks id
	summary []uint64 // bit w%64 of summary[w/64] marks words[w] != 0
}

// grow makes room for the IDs below n.
func (b *idBitmap) grow(n int) {
	if need := (n + 63) >> 6; len(b.words) < need {
		b.words = append(b.words, make([]uint64, need-len(b.words))...)
	}
	if need := (len(b.words) + 63) >> 6; len(b.summary) < need {
		b.summary = append(b.summary, make([]uint64, need-len(b.summary))...)
	}
}

func (b *idBitmap) set(id NodeID) {
	w := uint(id) >> 6
	b.words[w] |= 1 << (uint(id) & 63)
	b.summary[w>>6] |= 1 << (w & 63)
}

func (b *idBitmap) has(id NodeID) bool {
	return b.words[uint(id)>>6]&(1<<(uint(id)&63)) != 0
}

// drain appends the marked IDs to dst in ascending order and clears them.
func (b *idBitmap) drain(dst []NodeID) []NodeID {
	for i, sum := range b.summary {
		if sum == 0 {
			continue
		}
		b.summary[i] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			word := b.words[w]
			b.words[w] = 0
			for ; word != 0; word &= word - 1 {
				dst = append(dst, NodeID(w<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	return dst
}

// reset clears every marked ID.
func (b *idBitmap) reset() {
	for i, sum := range b.summary {
		if sum == 0 {
			continue
		}
		b.summary[i] = 0
		for ; sum != 0; sum &= sum - 1 {
			b.words[i<<6|bits.TrailingZeros64(sum)] = 0
		}
	}
}

// kinematics is one node's row of the position table: its current mobility
// leg and its radio range.
type kinematics struct {
	leg   mobility.Leg
	reach float64
}

// nodeCache holds one node's memoized neighborhood for one cache epoch.
type nodeCache struct {
	epoch uint64 // the epoch the entry was filled in; 0 before its first fill
	// nb is the usable-link neighborhood in ascending NodeID order, so
	// epoch-stale index state never leaks into results. nb and wide are
	// carved from the arena.
	nb []NodeID
	// wide holds the nodes inside the owner's own range but beyond their
	// own: while the entry is current, nb plus wide is the carrier-sense
	// set, failed nodes included (a miss scans the grid instead; see
	// carrierSense). Empty for a sensor among equal-range sensors; for an
	// actuator, the sensors between their range and its own.
	wide []NodeID
	// alive is the Alive() subset of nb, valid while aliveGen matches. It
	// is nb itself while every neighbor is alive, and otherwise a copy in
	// filtered, a buffer that keeps its capacity across fills.
	alive      []NodeID
	filtered   []NodeID
	aliveGen   uint64
	aliveValid bool
}

func (s *gridSpace) grow(n int) {
	s.kin = presize(s.kin, n)
	s.caches = presize(s.caches, n)
	s.order.grow(len(s.kin) + n)
}

func (s *gridSpace) add(n *Node) {
	s.kin = append(s.kin, kinematics{reach: n.Range})
	s.caches = append(s.caches, nodeCache{})
	s.order.grow(len(s.kin))
	if n.Kind == Actuator {
		s.actuators = append(s.actuators, n.ID)
	}
	s.topoGen++
	s.gridOK = false
}

func (s *gridSpace) position(id NodeID) geo.Point { return s.posAt(id, s.w.Sched.Now()) }

// posAt returns id's position at now from the position table. It is the only
// place the world asks a mobility model anything: for a new leg, when now
// leaves the cached one.
func (s *gridSpace) posAt(id NodeID, now time.Duration) geo.Point {
	k := &s.kin[id]
	if !k.leg.Contains(now) {
		s.w.stats.MobilityEvals++
		k.leg = s.w.nodes[id].Mob.Leg(now)
	}
	return k.leg.At(now)
}

// refreshGrid (re)builds the spatial index when node positions may have
// drifted more than gridStaleTol since the last build. Static worlds
// (maxSpeed 0) build exactly once; mobile worlds rebuild once per staleness
// epoch instead of once per event, reusing the grid's buffers.
func (s *gridSpace) refreshGrid() {
	now := s.w.Sched.Now()
	if s.gridOK && s.querySlack(now) <= gridStaleTol {
		return
	}
	if s.grid == nil {
		s.grid = indexGrid(s.w.cfg.Region)
	} else {
		s.grid.Reset()
	}
	s.grid.Grow(len(s.kin))
	for id := range s.kin {
		s.grid.Insert(id, s.posAt(NodeID(id), now))
	}
	s.gridAt = now
	s.gridOK = true
	s.w.stats.GridRebuilds++
}

// querySlack bounds how far any node can have strayed from its indexed
// position. Queries widen their radius by this much and re-check candidates
// exactly, so results never depend on the staleness.
func (s *gridSpace) querySlack(now time.Duration) float64 {
	return s.w.maxSpeed * (now - s.gridAt).Seconds()
}

// outer is the grid radius that holds every node whose exact position is
// within reach: the staleness slack, padded past linkWithin's band so the
// grid's plain squared-distance test never cuts a node at Dist == reach.
func (s *gridSpace) outer(reach float64, now time.Duration) float64 {
	return (reach + s.querySlack(now)) * (1 + linkBand)
}

// fill returns from's neighborhood memoized at the current virtual time,
// computing it if the clock or topology moved since the last query.
//
// The computation queries the (possibly stale) grid with slack, filters the
// candidates against exact current positions and lists the survivors by ID.
// Results are therefore bit-identical to a scan of every node at every
// event, while the index is only rebuilt once per staleness epoch. Each
// survivor sets its bit in the space's idBitmap, whose drain reads them back
// in ascending order: no comparisons, one step per survivor plus one summary
// word per 4 096 nodes. The scan counts the survivors and compacts the wide
// members to the front of the scratch, so each list is carved from the arena
// at its exact size before it is written and never grows by append.
func (s *gridSpace) fill(from NodeID) *nodeCache {
	s.refreshGrid()
	now := s.w.Sched.Now()
	c := &s.caches[from]
	if s.current(c, now) {
		s.w.stats.NeighborHits++
		return c
	}
	s.w.stats.NeighborRebuilds++
	p := s.posAt(from, now)
	reach := s.kin[from].reach
	s.scratch = s.grid.Within(s.scratch[:0], p, s.outer(reach, now), int(from))
	s.w.stats.NeighborCandidates += uint64(len(s.scratch))
	beyond := reach * reach * (1 + linkBand)
	survivors, wide := 0, 0
	for _, i := range s.scratch {
		q := s.posAt(NodeID(i), now)
		// Candidates beyond linkWithin's band, most of the ring, are rejected
		// here by its own first test, without a call.
		if dx, dy := q.X-p.X, q.Y-p.Y; dx*dx+dy*dy > beyond || !linkWithin(p, q, reach) {
			continue
		}
		if r := s.kin[i].reach; r < reach && !linkWithin(p, q, r) {
			s.scratch[wide] = i // wide <= the index being read
			wide++
			continue
		}
		s.order.set(NodeID(i))
		survivors++
	}
	c.wide = s.arena.take(wide)
	for _, i := range s.scratch[:wide] {
		c.wide = append(c.wide, NodeID(i))
	}
	c.nb = s.order.drain(s.arena.take(survivors))
	c.epoch = s.epochN
	c.aliveValid = false
	return c
}

// current reports whether a cache entry holds its owner's neighborhood at
// now: whether it was filled in now's cache epoch.
func (s *gridSpace) current(c *nodeCache, now time.Duration) bool {
	return c.epoch == s.epoch(now)
}

// epoch returns the number of the cache epoch now falls in: the span over
// which no neighborhood can change. A topology change (add) ends one, and so
// does a clock advance unless the world is fully static (every model bounds
// its speed at 0), where positions are time-invariant. Ending an epoch makes
// every cache entry stale and reclaims the arena they were carved from, so
// the one rule decides both a cache hit and how long a list's memory lives.
func (s *gridSpace) epoch(now time.Duration) uint64 {
	if s.epochGen != s.topoGen || (now != s.epochAt && s.w.maxSpeed > 0) {
		s.epochN++
		s.epochGen, s.epochAt = s.topoGen, now
		s.arena.reset()
	}
	return s.epochN
}

// arenaChunk is the arena's chunk size in IDs (16 KB). Every world allocates
// at least one chunk, so large chunks cost small worlds: with 64 KB chunks the
// refer_faults and simd_serve benchmark workloads (static lattices, small
// served worlds) allocated 3 % more than with per-node buffers, with 16 KB
// chunks 1.5–2.3 % less.
const arenaChunk = 4096

// idArena hands out neighbor lists carved from pooled chunks of arenaChunk
// IDs. reset reclaims every list at once and keeps the chunks for the next
// carving, so a warm arena allocates nothing. A list longer than a chunk gets
// a pooled chunk of its own.
type idArena struct {
	chunks [][]NodeID // chunks[:used] are being carved this epoch
	used   int
	free   []NodeID // the uncarved tail of chunks[used-1]
	// poison makes reset overwrite the reclaimed chunks with NoNode, so a
	// list read after its epoch ended reads garbage every time (tests only).
	poison bool
}

// take returns an empty list with capacity exactly k: appending more than k
// IDs to it moves it, instead of writing into the list carved after it.
func (a *idArena) take(k int) []NodeID {
	if k > len(a.free) {
		a.free = a.chunk(k)
	}
	list := a.free[:0:k]
	a.free = a.free[k:]
	return list
}

// chunk moves the first pooled chunk not yet carved this epoch that holds k
// IDs to chunks[used], allocating it if there is none, and returns it.
func (a *idArena) chunk(k int) []NodeID {
	i := a.used
	for i < len(a.chunks) && len(a.chunks[i]) < k {
		i++
	}
	if i == len(a.chunks) {
		a.chunks = append(a.chunks, make([]NodeID, max(k, arenaChunk)))
	}
	a.chunks[a.used], a.chunks[i] = a.chunks[i], a.chunks[a.used]
	a.used++
	return a.chunks[a.used-1]
}

// reset reclaims every list carved since the last reset.
func (a *idArena) reset() {
	if a.poison {
		for _, c := range a.chunks[:a.used] {
			for i := range c {
				c[i] = NoNode
			}
		}
	}
	a.used, a.free = 0, nil
}

func (s *gridSpace) neighbors(from NodeID, alive bool) []NodeID {
	c := s.fill(from)
	if !alive {
		return c.nb
	}
	if !c.aliveValid || c.aliveGen != s.w.aliveGen {
		// One pass: the view is nb until the first neighbor that is down,
		// which copies the alive prefix into the filtered buffer.
		c.alive = c.nb
		for i, id := range c.nb {
			if !s.w.nodes[id].Alive() {
				c.filtered = append(c.filtered[:0], c.nb[:i]...)
				for _, id := range c.nb[i+1:] {
					if s.w.nodes[id].Alive() {
						c.filtered = append(c.filtered, id)
					}
				}
				c.alive = c.filtered
				break
			}
		}
		c.aliveGen = s.w.aliveGen
		c.aliveValid = true
	}
	return c.alive
}

// carrierSense walks the carrier-sense set. While from's cache entry is
// current it is the neighbor list plus its wide remainder. Otherwise one
// split grid query around from's exact position yields it without filling
// the cache: a candidate indexed within reach − slack − senseGuard is in
// range by the staleness bound, and only the band out to the fill's outer
// radius is re-checked against exact positions, with the fill's own test.
func (s *gridSpace) carrierSense(from NodeID, end time.Duration) {
	now := s.w.Sched.Now()
	s.refreshGrid()
	if c := &s.caches[from]; s.current(c, now) {
		s.w.stats.NeighborHits++
		for _, set := range [2][]NodeID{c.nb, c.wide} {
			for _, id := range set {
				s.w.holdOff(id, end)
			}
		}
		return
	}
	p := s.posAt(from, now)
	reach := s.kin[from].reach
	s.scratch, s.band = s.grid.Split(s.scratch[:0], s.band[:0], p, reach-s.querySlack(now)-senseGuard, s.outer(reach, now), int(from))
	for _, i := range s.scratch {
		s.w.holdOff(NodeID(i), end)
	}
	beyond := reach * reach * (1 + linkBand)
	for _, i := range s.band {
		q := s.posAt(NodeID(i), now)
		if dx, dy := q.X-p.X, q.Y-p.Y; dx*dx+dy*dy <= beyond && linkWithin(p, q, reach) {
			s.w.holdOff(NodeID(i), end)
		}
	}
}

// nearestActuator scans the maintained actuator index — a few dozen entries
// — rather than the full node list. Ties resolve to the lowest ID (the
// index is in insertion = ID order and the comparison is strict).
func (s *gridSpace) nearestActuator(from NodeID) NodeID {
	now := s.w.Sched.Now()
	p := s.posAt(from, now)
	best := NoNode
	bestDist := 0.0
	for _, id := range s.actuators {
		if !s.w.nodes[id].Alive() {
			continue
		}
		d := p.Dist(s.posAt(id, now))
		if best == NoNode || d < bestDist {
			best, bestDist = id, d
		}
	}
	return best
}
