package kautzoverlay

import (
	"fmt"

	"refer/internal/kautz"
)

// CheckInvariants audits the overlay's structural invariants and returns
// the first violation, or nil. It is the conformance harness's probe point
// (see internal/chaos). The overlay never re-assigns IDs after Build, so
// the bijection is total and permanent; stored physical paths may go stale
// under mobility and faults (the protocol revalidates and rebuilds them on
// use), but their endpoints must always anchor the arc they serve.
func (s *System) CheckInvariants() error {
	if !s.built {
		return nil
	}
	if len(s.kidOf) != len(s.nodeOf) {
		return fmt.Errorf("kautzoverlay: %d members but %d overlay IDs", len(s.kidOf), len(s.nodeOf))
	}
	if len(s.nodeOf) != s.graph.N() {
		return fmt.Errorf("kautzoverlay: %d overlay IDs assigned, want the full K(%d,%d) = %d",
			len(s.nodeOf), degree, s.diameter, s.graph.N())
	}
	for id, kid := range s.kidOf {
		if !kid.Valid(degree, s.diameter) {
			return fmt.Errorf("kautzoverlay: node %d holds invalid KID %s", id, kid)
		}
		if got, ok := s.nodeOf[kid]; !ok || got != id {
			return fmt.Errorf("kautzoverlay: kidOf[%d]=%s but nodeOf[%s]=%d", id, kid, kid, got)
		}
	}
	for key, path := range s.links {
		if !kautz.IsSuccessor(key.from, key.to) {
			return fmt.Errorf("kautzoverlay: stored path for non-arc %s→%s", key.from, key.to)
		}
		if len(path) < 2 {
			return fmt.Errorf("kautzoverlay: stored path for %s→%s too short: %v", key.from, key.to, path)
		}
		if path[0] != s.nodeOf[key.from] || path[len(path)-1] != s.nodeOf[key.to] {
			return fmt.Errorf("kautzoverlay: stored path for %s→%s runs %d→%d, want %d→%d",
				key.from, key.to, path[0], path[len(path)-1], s.nodeOf[key.from], s.nodeOf[key.to])
		}
	}
	return s.checkRouteSoundness()
}

// checkRouteSoundness verifies the Theorem 3.8 route sets served to the
// overlay router for every ordered pair of the overlay graph.
func (s *System) checkRouteSoundness() error {
	nodes := s.graph.Nodes()
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			var routes []kautz.Route
			if s.routes != nil {
				if tabled, ok := s.routes.Routes(u, v); ok {
					routes = tabled
				}
			}
			if routes == nil {
				computed, err := kautz.Routes(degree, u, v)
				if err != nil {
					return fmt.Errorf("kautzoverlay: route set %s→%s: %w", u, v, err)
				}
				routes = computed
			}
			if err := kautz.VerifyRoutes(degree, u, v, routes); err != nil {
				return fmt.Errorf("kautzoverlay: failover soundness: %w", err)
			}
		}
	}
	return nil
}

// Members returns the overlay member count (for tests).
func (s *System) Members() int { return len(s.kidOf) }
