// Package manet provides the "topological routing" substrate of the
// baseline systems ([35] in the paper): broadcast-flood route discovery and
// hop-by-hop source-route forwarding. REFER never uses this package for
// data routing — that is the point of the paper — but DaTree, D-DEAR and
// Kautz-overlay depend on it for path construction and repair.
package manet

import (
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
	w.Flood(src, ttl, ledger, func(at world.NodeID, hops int, path []world.NodeID) bool {
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

// bfsPath runs a hop-bounded BFS from src over alive nodes whose links
// satisfy the margin, returning the first path to an accepted node.
func bfsPath(w *world.World, src world.NodeID, ttl int, accept func(world.NodeID) bool, margin float64) []world.NodeID {
	if !w.Node(src).Alive() {
		return nil
	}
	type entry struct {
		id   world.NodeID
		hops int
	}
	prev := map[world.NodeID]world.NodeID{src: src}
	queue := []entry{{id: src, hops: 0}}
	build := func(at world.NodeID) []world.NodeID {
		var rev []world.NodeID
		for cur := at; ; cur = prev[cur] {
			rev = append(rev, cur)
			if cur == src {
				break
			}
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.hops >= ttl {
			continue
		}
		// Borrowed cache slice: nothing in the loop body mutates the world
		// or re-queries cur.id, so the slice stays valid for the iteration.
		for _, nb := range w.AliveNeighbors(nil, cur.id) {
			if _, seen := prev[nb]; seen {
				continue
			}
			if w.Distance(cur.id, nb) > margin*w.LinkRange(cur.id, nb) {
				continue
			}
			prev[nb] = cur.id
			if accept(nb) {
				return build(nb)
			}
			queue = append(queue, entry{id: nb, hops: cur.hops + 1})
		}
	}
	return nil
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
	var hop func(i int)
	hop = func(i int) {
		if i == len(path)-1 {
			if onDelivered != nil {
				onDelivered()
			}
			return
		}
		w.Send(path[i], path[i+1], ledger, func(o world.Outcome) {
			if o == world.Delivered {
				if onHop != nil {
					onHop(i)
				}
				hop(i + 1)
				return
			}
			if onBroken != nil {
				onBroken(i)
			}
		})
	}
	hop(0)
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
