// Package kautz implements Kautz digraphs K(d, k) and the ID-only routing
// theory of the REFER system (Li & Shen, ICDCS 2012): greedy shortest
// routing, the d disjoint U-V paths of Theorem 3.8, and the supporting
// graph-theoretic machinery (Hamiltonian cycles via line-digraph Eulerian
// circuits, vertex connectivity, Moore-bound helpers).
//
// A Kautz graph K(d, k) has degree d and diameter k. Its nodes are strings
// u1…uk over the alphabet {0, …, d} (d+1 letters) in which no two adjacent
// letters are equal. Node U has an arc to node V exactly when V is U shifted
// left by one position with one new letter appended, i.e.
// V = u2…uk x, x ≠ uk.
package kautz

import (
	"errors"
	"fmt"
)

// MaxDegree is the largest supported Kautz degree d. IDs are stored as
// strings of ASCII decimal digits, so the alphabet {0..d} must fit in '0'-'9'.
const MaxDegree = 9

// ID is a Kautz node identifier: a string of ASCII digits over the alphabet
// {0..d} with no two equal adjacent digits. The zero value is the empty ID,
// which is not a valid node of any graph.
//
// IDs are ordinary strings so they are comparable, usable as map keys and
// cheap to copy.
type ID string

// ErrInvalidID reports a malformed Kautz identifier.
var ErrInvalidID = errors.New("kautz: invalid ID")

// ParseID validates s as a Kautz identifier: non-empty, ASCII digits only,
// and no two equal adjacent digits. It does not check the digits against a
// particular degree; use Valid for that.
func ParseID(s string) (ID, error) {
	if s == "" {
		return "", fmt.Errorf("%w: empty", ErrInvalidID)
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return "", fmt.Errorf("%w: %q has non-digit at position %d", ErrInvalidID, s, i)
		}
		if i > 0 && s[i] == s[i-1] {
			return "", fmt.Errorf("%w: %q repeats digit at position %d", ErrInvalidID, s, i)
		}
	}
	return ID(s), nil
}

// MakeID builds an ID from digit values. It returns an error if any digit is
// outside [0, MaxDegree] or two adjacent digits are equal.
func MakeID(digits ...int) (ID, error) {
	if len(digits) == 0 {
		return "", fmt.Errorf("%w: empty", ErrInvalidID)
	}
	buf := make([]byte, len(digits))
	for i, v := range digits {
		if v < 0 || v > MaxDegree {
			return "", fmt.Errorf("%w: digit %d out of range", ErrInvalidID, v)
		}
		if i > 0 && digits[i-1] == v {
			return "", fmt.Errorf("%w: adjacent repeat at position %d", ErrInvalidID, i)
		}
		buf[i] = byte('0' + v)
	}
	return ID(buf), nil
}

// Len returns k, the number of digits of the ID.
func (id ID) Len() int { return len(id) }

// At returns the 0-based i-th digit value. The paper indexes digits from 1;
// paper digit u_j is At(j-1).
func (id ID) At(i int) int { return int(id[i] - '0') }

// First returns the first digit value (paper u1).
func (id ID) First() int { return id.At(0) }

// Last returns the last digit value (paper uk).
func (id ID) Last() int { return id.At(len(id) - 1) }

// Valid reports whether the ID is a well-formed node of K(d, k): length k,
// all digits in [0, d], no two equal adjacent digits.
func (id ID) Valid(d, k int) bool {
	if len(id) != k {
		return false
	}
	for i := 0; i < len(id); i++ {
		v := id[i] - '0'
		if v > byte(d) || id[i] < '0' || id[i] > '9' {
			return false
		}
		if i > 0 && id[i] == id[i-1] {
			return false
		}
	}
	return true
}

// Shift returns the successor of id obtained by shifting left one position
// and appending digit x (paper: u1…uk → u2…uk x). It returns an error when
// x equals the current last digit, which would produce an invalid ID.
func (id ID) Shift(x int) (ID, error) {
	if x < 0 || x > MaxDegree {
		return "", fmt.Errorf("%w: shift digit %d out of range", ErrInvalidID, x)
	}
	if id.Last() == x {
		return "", fmt.Errorf("%w: shifting %q by %d repeats last digit", ErrInvalidID, string(id), x)
	}
	buf := make([]byte, len(id))
	copy(buf, id[1:])
	buf[len(buf)-1] = byte('0' + x)
	return ID(buf), nil
}

// MustShift is Shift that panics on error; use only when x ≠ Last is known.
func (id ID) MustShift(x int) ID {
	out, err := id.Shift(x)
	if err != nil {
		panic(err)
	}
	return out
}

// IsSuccessor reports whether v is a successor of u in a Kautz graph, i.e.
// v = u2…uk x for some x ≠ uk. Both the window condition and v's own Kautz
// validity at the appended digit are checked.
func IsSuccessor(u, v ID) bool {
	if len(u) != len(v) || len(u) == 0 {
		return false
	}
	if len(v) > 1 && v[len(v)-1] == v[len(v)-2] {
		return false
	}
	return string(u[1:]) == string(v[:len(v)-1])
}

// Overlap returns l = L(U, V): the length of the longest proper-or-full
// suffix of u that is a prefix of v. For u == v it returns k.
func Overlap(u, v ID) int {
	if len(u) != len(v) {
		return 0
	}
	k := len(u)
	for l := k; l > 0; l-- {
		if string(u[k-l:]) == string(v[:l]) {
			return l
		}
	}
	return 0
}

// Distance returns the greedy shortest-path hop distance k - L(U, V)
// between two nodes of the same length. Distance(u, u) == 0.
func Distance(u, v ID) int {
	return len(u) - Overlap(u, v)
}

// String implements fmt.Stringer.
func (id ID) String() string { return string(id) }
