package kautz

import (
	"fmt"
	"sort"
)

// PathClass classifies one of the d disjoint U-V paths of Theorem 3.8 by the
// role of its out-digit α (the last digit of U's successor on the path).
type PathClass int

const (
	// ClassShortest is the unique greedy shortest path (α = v_{l+1}),
	// nominal length k−l.
	ClassShortest PathClass = iota + 1
	// ClassConflict is the path through the conflict node (α = u_{k−l},
	// only when u_{k−l} ≠ v_{l+1}); the conflict node must divert to
	// in-digit v_{l+1} (Prop. 3.7), nominal length k+2.
	ClassConflict
	// ClassViaV1 is the path whose out-digit is v1 (when it is neither the
	// shortest nor the conflict out-digit), nominal length k.
	ClassViaV1
	// ClassDetour covers every remaining out-digit, nominal length k+1.
	ClassDetour
)

// String implements fmt.Stringer.
func (c PathClass) String() string {
	switch c {
	case ClassShortest:
		return "shortest"
	case ClassConflict:
		return "conflict"
	case ClassViaV1:
		return "via-v1"
	case ClassDetour:
		return "detour"
	default:
		return fmt.Sprintf("PathClass(%d)", int(c))
	}
}

// Route describes one of the d disjoint U→V paths computable from the two
// IDs alone (Theorem 3.8).
type Route struct {
	// Successor is U's next hop on this path.
	Successor ID
	// OutDigit is α, the digit appended to form Successor.
	OutDigit int
	// Class tells which clause of Theorem 3.8 produced the route.
	Class PathClass
	// NominalLen is the path length stated by Theorem 3.8:
	// k−l, k, k+1 or k+2 depending on Class.
	NominalLen int
	// Path is the concrete node sequence from U to V inclusive: the sliding
	// window walk over the route's script string (suffix of U, out-digit,
	// in-digit, digits of V), truncated at the first window equal to V.
	// Its true length is len(Path)−1, which can undercut NominalLen when
	// digit coincidences make V appear early in the script.
	Path []ID
}

// Len returns the number of hops of the concrete path.
func (r Route) Len() int { return len(r.Path) - 1 }

// GreedyNext returns U's successor on the unique shortest path to V under
// the greedy shortest protocol: shift left and append v_{l+1} where
// l = L(U, V). It returns an error when u == v.
func GreedyNext(u, v ID) (ID, error) {
	if u == v {
		return "", fmt.Errorf("kautz: GreedyNext(%s, %s): source equals destination", u, v)
	}
	if len(u) != len(v) {
		return "", fmt.Errorf("kautz: GreedyNext: length mismatch %q vs %q", u, v)
	}
	l := Overlap(u, v)
	return u.Shift(v.At(l))
}

// Routes computes, purely from the IDs, the d disjoint U→V routes of
// Theorem 3.8 for a Kautz graph of degree d, sorted by concrete path length
// (shortest first; ties broken by out-digit). u and v must be distinct nodes
// of the same length with digits within [0, d].
//
// This is the heart of REFER's fault-tolerant routing: a relay node that
// sees its preferred successor fail ranks the remaining routes by length and
// retries, with no route discovery, flooding or per-destination state.
func Routes(d int, u, v ID) ([]Route, error) {
	if u == v {
		return nil, fmt.Errorf("kautz: Routes(%s, %s): source equals destination", u, v)
	}
	if len(u) != len(v) {
		return nil, fmt.Errorf("kautz: Routes: length mismatch %q vs %q", u, v)
	}
	if !u.Valid(d, len(u)) || !v.Valid(d, len(v)) {
		return nil, fmt.Errorf("kautz: Routes: %q or %q not valid for degree %d", u, v, d)
	}
	k := len(u)
	l := Overlap(u, v)
	vl1 := v.At(l) // v_{l+1} in the paper's 1-based notation
	ukl := -1      // u_{k−l}; undefined (never matches) when l == 0
	if l > 0 {
		ukl = u.At(k - l - 1)
	}
	routes := make([]Route, 0, d)
	for alpha := 0; alpha <= d; alpha++ {
		if alpha == u.Last() {
			continue
		}
		succ := u.MustShift(alpha)
		var (
			class   PathClass
			nominal int
			script  string
		)
		// Each path is the sliding window walk over a "script" string whose
		// tail fixes the path's in-digit (the first digit of V's
		// predecessor, Prop. 3.3). The assignment below keeps all d
		// in-digits pairwise distinct in every corner case, which by
		// Props. 3.4–3.5 keeps the paths internally disjoint; two cases the
		// paper's analysis misses get explicitly reassigned in-digits (see
		// DESIGN.md).
		switch {
		case alpha == vl1:
			// Shortest path: overlap the script, in-digit u_{k−l}.
			class, nominal = ClassShortest, k-l
			script = string(u) + string(v[l:])
		case alpha == ukl: // implies alpha != vl1 by the previous case
			// Conflict node (Def. 4): divert per Prop. 3.7 to in-digit
			// v_{l+1} — unless v_{l+1} == v1 makes that in-digit illegal
			// (missed by the paper); then take the free in-digit u_k.
			class, nominal = ClassConflict, k+2
			if v[l] == v[0] {
				script = string(u) + string(u[k-l-1]) + string(u[k-1]) + string(v)
			} else {
				script = string(u) + string(u[k-l-1]) + string(v[l]) + string(v)
			}
		case alpha == v.First():
			class, nominal = ClassViaV1, k
			if ukl == u.Last() {
				// Second corner case the paper misses: u_{k−l} == u_k makes
				// the via-v1 path's natural in-digit u_k collide with the
				// shortest path's in-digit u_{k−l}. The conflict out-digit
				// is unavailable then (it equals the forbidden u_k), so the
				// in-digit v_{l+1} is free; divert to it.
				nominal = k + 2
				script = string(u) + string(v[0]) + string(v[l]) + string(v)
			} else {
				// Natural via-v1 path: windows of U·V, in-digit u_k.
				script = string(u) + string(v)
			}
		default:
			class, nominal = ClassDetour, k+1
			script = string(u) + string(byte('0'+alpha)) + string(v)
		}
		path, err := windowWalk(script, k, v)
		if err != nil {
			return nil, fmt.Errorf("kautz: route %s→%s via %s: %w", u, v, succ, err)
		}
		routes = append(routes, Route{
			Successor:  succ,
			OutDigit:   alpha,
			Class:      class,
			NominalLen: nominal,
			Path:       path,
		})
	}
	sort.SliceStable(routes, func(i, j int) bool {
		li, lj := routes[i].Len(), routes[j].Len()
		if li != lj {
			return li < lj
		}
		return routes[i].OutDigit < routes[j].OutDigit
	})
	return routes, nil
}

// windowWalk converts a script string into its length-k sliding-window node
// sequence, truncating at the first window equal to v (windows after the
// destination is reached would be wasted hops). It rejects scripts whose
// windows are not valid Kautz IDs or that never reach v.
func windowWalk(script string, k int, v ID) ([]ID, error) {
	for i := 1; i < len(script); i++ {
		if script[i] == script[i-1] {
			return nil, fmt.Errorf("script %q has adjacent repeat at %d", script, i)
		}
	}
	n := len(script) - k + 1
	if n < 1 {
		return nil, fmt.Errorf("script %q shorter than window %d", script, k)
	}
	// Periodic scripts (e.g. …2121…) can make the raw window walk revisit a
	// node; loop-erase as we go so the result is a simple path. Erasing a
	// cycle only removes nodes, so cross-path disjointness is preserved.
	path := make([]ID, 0, n)
	at := make(map[ID]int, n)
	for i := 0; i < n; i++ {
		w := ID(script[i : i+k])
		if j, seen := at[w]; seen {
			for _, dropped := range path[j+1:] {
				delete(at, dropped)
			}
			path = path[:j+1]
		} else {
			at[w] = len(path)
			path = append(path, w)
		}
		if w == v && len(path) > 1 {
			return path, nil
		}
	}
	if path[len(path)-1] != v {
		return nil, fmt.Errorf("script %q does not end at %s", script, v)
	}
	return path, nil
}

// InternallyDisjoint reports whether the given paths share no nodes other
// than their common first and last elements. Paths of length 1 (direct arcs)
// have no internal nodes.
func InternallyDisjoint(paths [][]ID) bool {
	seen := make(map[ID]struct{})
	for _, p := range paths {
		for _, node := range p[1 : len(p)-1] {
			if _, dup := seen[node]; dup {
				return false
			}
			seen[node] = struct{}{}
		}
	}
	return true
}

// ValidWalk reports whether path is a sequence of consecutive Kautz arcs.
func ValidWalk(path []ID) bool {
	for i := 0; i+1 < len(path); i++ {
		if !IsSuccessor(path[i], path[i+1]) {
			return false
		}
	}
	return true
}
