// Package manet provides the "topological routing" substrate of the
// baseline systems ([35] in the paper): broadcast-flood route discovery and
// hop-by-hop source-route forwarding. REFER never uses this package for
// data routing — that is the point of the paper — but DaTree, D-DEAR and
// Kautz-overlay depend on it for path construction and repair.
package manet

import (
	"math"

	"refer/internal/energy"
	"refer/internal/world"
)

// DefaultTTL bounds route-discovery floods. Networks in the evaluation are
// at most ~20 hops across.
const DefaultTTL = 24

// LinkMargin is the link-quality threshold route selection prefers: a hop
// is "strong" when its length is at most this fraction of the link range.
// Destinations receive several route-request copies and pick a path of
// strong links when one exists (signal-strength-aware route selection);
// paths of full-stretch ~100 m hops break within seconds under mobility.
const LinkMargin = 0.8

// DiscoverRoute floods a route request from src toward dst: DiscoverNearest
// accepting dst alone. onRoute receives the selected path (src first, dst
// last) or nil when dst was unreachable.
func DiscoverRoute(w *world.World, src, dst world.NodeID, ttl int, ledger energy.Ledger, onRoute func(path []world.NodeID)) {
	DiscoverNearest(w, src, ttl, ledger, func(id world.NodeID) bool { return id == dst }, onRoute)
}

// DiscoverNearest is the one flood-then-select. It floods from src, ttl hops
// deep; after the flood quiesces, onRoute receives the path (src first) to
// the hop-nearest node satisfying accept, or nil when none was reached. The
// flood's full energy bill — every rebroadcast and every overheard copy — is
// charged to ledger. Among the request copies an accepted node hears, it
// prefers the hop-shortest path whose links all satisfy LinkMargin, falling
// back to any path.
func DiscoverNearest(w *world.World, src world.NodeID, ttl int, ledger energy.Ledger, accept func(world.NodeID) bool, onRoute func(path []world.NodeID)) {
	reached := false
	w.Flood(src, ttl, ledger, func(at, _ world.NodeID) bool {
		if !accept(at) {
			return !reached // stop expanding once a route is found
		}
		reached = true
		return false // an accepted node does not rebroadcast
	}, func() {
		if onRoute == nil {
			return
		}
		if !reached {
			onRoute(nil)
			return
		}
		onRoute(selectPath(w, src, ttl, accept))
	})
}

// selectPath picks the route the destination's reply would establish: the
// hop-shortest path from src to an accepted node over strong links (length
// ≤ LinkMargin × link range), or over any usable link when no strong path
// exists, bounded by ttl hops. Returns nil when no accepted node is
// reachable at all.
func selectPath(w *world.World, src world.NodeID, ttl int, accept func(world.NodeID) bool) []world.NodeID {
	if path := bfsPath(w, src, ttl, accept, LinkMargin); path != nil {
		return path
	}
	return bfsPath(w, src, ttl, accept, 1.0)
}

// search is the level-order BFS bfsPath and Tree share, on the world's
// search table: the visit list is the FIFO, one hop level after another, and
// via holds each listed node's predecessor + 1. From each listed node less
// than ttl hops from src it enters every alive neighbor not listed before
// that enter admits (nil admits all) over a link within margin × range, and
// it stops at the first entered node accept admits (nil admits none),
// returning that node or NoNode with the grown visit list.
func search(w *world.World, via, visit []world.NodeID, src world.NodeID, ttl int, margin float64, enter, accept func(world.NodeID) bool) (world.NodeID, []world.NodeID) {
	via[src] = src + 1
	visit = append(visit, src)
	hops, levelEnd := 0, 1 // visit[head] is hops hops from src while head < levelEnd
	for head := 0; head < len(visit); head++ {
		if head == levelEnd {
			hops, levelEnd = hops+1, len(visit)
		}
		if hops >= ttl {
			break
		}
		cur := visit[head]
		// Borrowed cache slice: nothing in the loop body mutates the world
		// or re-queries cur, so the slice stays valid for the iteration.
		for _, nb := range w.AliveNeighbors(nil, cur) {
			if via[nb] != 0 || (enter != nil && !enter(nb)) || w.Distance(cur, nb) > margin*w.LinkRange(cur, nb) {
				continue
			}
			via[nb] = cur + 1
			visit = append(visit, nb)
			if accept != nil && accept(nb) {
				return nb, visit
			}
		}
	}
	return world.NoNode, visit
}

// bfsPath runs a hop-bounded BFS from src over alive nodes whose links
// satisfy the margin, returning the first path to an accepted node. Only
// the returned path is allocated, at its exact length: callers keep it.
func bfsPath(w *world.World, src world.NodeID, ttl int, accept func(world.NodeID) bool, margin float64) []world.NodeID {
	if !w.Node(src).Alive() {
		return nil
	}
	via, visit := w.BorrowSearch()
	found, visit := search(w, via, visit, src, ttl, margin, nil, accept)
	var path []world.NodeID
	if found != world.NoNode {
		n := 1
		for cur := found; cur != src; cur = via[cur] - 1 {
			n++
		}
		path = make([]world.NodeID, n)
		for cur := found; n > 0; cur = via[cur] - 1 {
			n--
			path[n] = cur
		}
	}
	w.ReturnSearch(visit)
	return path
}

// Tree grows a strong-link tree from root: a BFS over alive links within
// LinkMargin of range that enters only nodes member admits. It calls
// reached(at, pred) for every node it reaches except root, in BFS order,
// after the search and before the table goes back; reached must not search.
func Tree(w *world.World, root world.NodeID, member func(world.NodeID) bool, reached func(at, pred world.NodeID)) {
	via, visit := w.BorrowSearch()
	_, visit = search(w, via, visit, root, math.MaxInt, LinkMargin, member, nil)
	for _, at := range visit[1:] {
		reached(at, via[at]-1)
	}
	w.ReturnSearch(visit)
}

// DiscoverRouteRing performs an expanding-ring search: DiscoverRoute with
// each TTL of the non-empty list in turn, stopping at the first success.
// Protocols that know the destination is nearby (a tree node searching its
// root) use a small ring first, paying the full flood only when the cheap one
// fails.
func DiscoverRouteRing(w *world.World, src, dst world.NodeID, ttls []int, ledger energy.Ledger, onRoute func(path []world.NodeID)) {
	DiscoverRoute(w, src, dst, ttls[0], ledger, func(path []world.NodeID) {
		if path != nil || len(ttls) == 1 {
			if onRoute != nil {
				onRoute(path)
			}
			return
		}
		DiscoverRouteRing(w, src, dst, ttls[1:], ledger, onRoute)
	})
}

// SendAlongPathHops forwards a packet hop by hop along a source route.
// onHop, which may be nil, fires after each successful hop with the index of
// the forwarding node (path[hopAt] reached path[hopAt+1]); systems use it to
// thread per-packet tracing through source-routed segments. onDelivered fires
// when the final node receives the packet; onBroken fires on the first failed
// hop with the index of the node that could not forward (path[brokenAt]
// failed to reach path[brokenAt+1]). Exactly one of those two fires. A path
// of length < 2 delivers immediately.
func SendAlongPathHops(w *world.World, path []world.NodeID, ledger energy.Ledger, onHop func(hopAt int), onDelivered func(), onBroken func(brokenAt int)) {
	if len(path) < 2 {
		if onDelivered != nil {
			onDelivered()
		}
		return
	}
	s := &pathSend{w: w, path: path, ledger: ledger, onHop: onHop, onDelivered: onDelivered, onBroken: onBroken}
	s.sent = s.hopDone
	w.Send(path[0], path[1], ledger, s.sent)
}

// pathSend is one source route in flight: path[at] is transmitting to
// path[at+1], and sent, bound once per route, is every hop's completion.
type pathSend struct {
	w           *world.World
	path        []world.NodeID
	ledger      energy.Ledger
	onHop       func(hopAt int)
	onDelivered func()
	onBroken    func(brokenAt int)
	at          int
	sent        func(world.Outcome) // s.hopDone
}

// hopDone completes the hop path[at] → path[at+1]: it reports a break, or
// sends the next hop, or delivers at the last node.
func (s *pathSend) hopDone(o world.Outcome) {
	if o != world.Delivered {
		if s.onBroken != nil {
			s.onBroken(s.at)
		}
		return
	}
	if s.onHop != nil {
		s.onHop(s.at)
	}
	s.at++
	if s.at == len(s.path)-1 {
		if s.onDelivered != nil {
			s.onDelivered()
		}
		return
	}
	s.w.Send(s.path[s.at], s.path[s.at+1], s.ledger, s.sent)
}

// PathValid reports whether every consecutive pair of the path is currently
// within range and alive — a cheap admission check before transmitting.
func PathValid(w *world.World, path []world.NodeID) bool {
	for i := 0; i+1 < len(path); i++ {
		if !w.Node(path[i]).Alive() || !w.Node(path[i+1]).Alive() || !w.InRange(path[i], path[i+1]) {
			return false
		}
	}
	return true
}
