package kautz

import (
	"strings"
	"testing"
	"testing/quick"
)

// MustID is MakeID that panics on error, for constant IDs in tests.
func MustID(digits ...int) ID {
	id, err := MakeID(digits...)
	if err != nil {
		panic(err)
	}
	return id
}

func TestParseID(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		wantErr bool
	}{
		{name: "paper example", in: "201", wantErr: false},
		{name: "single digit", in: "7", wantErr: false},
		{name: "figure 2 node", in: "0123", wantErr: false},
		{name: "empty", in: "", wantErr: true},
		{name: "adjacent repeat", in: "1223", wantErr: true},
		{name: "leading repeat", in: "001", wantErr: true},
		{name: "non digit", in: "12a", wantErr: true},
		{name: "unicode", in: "1²3", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseID(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseID(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && string(got) != tt.in {
				t.Fatalf("ParseID(%q) = %q", tt.in, got)
			}
		})
	}
}

func TestMakeID(t *testing.T) {
	tests := []struct {
		name    string
		digits  []int
		want    ID
		wantErr bool
	}{
		{name: "ok", digits: []int{2, 0, 1}, want: "201"},
		{name: "empty", digits: nil, wantErr: true},
		{name: "repeat", digits: []int{1, 1, 2}, wantErr: true},
		{name: "negative", digits: []int{-1, 0}, wantErr: true},
		{name: "too large", digits: []int{10, 0}, wantErr: true},
		{name: "max degree digit", digits: []int{9, 0, 9}, want: "909"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := MakeID(tt.digits...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("MakeID(%v) error = %v, wantErr %v", tt.digits, err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Fatalf("MakeID(%v) = %q, want %q", tt.digits, got, tt.want)
			}
		})
	}
}

func TestMustIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustID(1,1) did not panic")
		}
	}()
	MustID(1, 1)
}

func TestIDAccessors(t *testing.T) {
	id := MustID(2, 0, 1)
	if got := id.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	if got := id.First(); got != 2 {
		t.Errorf("First() = %d, want 2", got)
	}
	if got := id.Last(); got != 1 {
		t.Errorf("Last() = %d, want 1", got)
	}
	for i, want := range []int{2, 0, 1} {
		if got := id.At(i); got != want {
			t.Errorf("At(%d) = %d, want %d", i, got, want)
		}
	}
	if got := id.String(); got != "201" {
		t.Errorf("String() = %q, want 201", got)
	}
}

func TestIDValid(t *testing.T) {
	tests := []struct {
		name string
		id   ID
		d, k int
		want bool
	}{
		{name: "K(2,3) member", id: "201", d: 2, k: 3, want: true},
		{name: "digit above d", id: "301", d: 2, k: 3, want: false},
		{name: "wrong length", id: "20", d: 2, k: 3, want: false},
		{name: "adjacent repeat", id: "200", d: 2, k: 3, want: false},
		{name: "empty", id: "", d: 2, k: 3, want: false},
		{name: "K(4,4) member", id: "0123", d: 4, k: 4, want: true},
		{name: "garbage bytes", id: ID("2\x001"), d: 2, k: 3, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.id.Valid(tt.d, tt.k); got != tt.want {
				t.Fatalf("%q.Valid(%d,%d) = %v, want %v", tt.id, tt.d, tt.k, got, tt.want)
			}
		})
	}
}

func TestShift(t *testing.T) {
	id := MustID(0, 1, 2, 3)
	got, err := id.Shift(0)
	if err != nil {
		t.Fatalf("Shift(0): %v", err)
	}
	if got != "1230" {
		t.Fatalf("Shift(0) = %q, want 1230", got)
	}
	if _, err := id.Shift(3); err == nil {
		t.Fatal("Shift(last digit) should fail")
	}
	if _, err := id.Shift(-1); err == nil {
		t.Fatal("Shift(-1) should fail")
	}
	if _, err := id.Shift(10); err == nil {
		t.Fatal("Shift(10) should fail")
	}
}

func TestIsSuccessor(t *testing.T) {
	tests := []struct {
		u, v ID
		want bool
	}{
		{"0123", "1230", true},
		{"0123", "1234", true},
		{"0123", "1233", false}, // not even a valid ID
		{"0123", "2301", false},
		{"012", "1230", false}, // length mismatch
		{"", "", false},
		{"01", "12", true},
		{"01", "10", true},
	}
	for _, tt := range tests {
		if got := IsSuccessor(tt.u, tt.v); got != tt.want {
			t.Errorf("IsSuccessor(%q, %q) = %v, want %v", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestOverlapAndDistance(t *testing.T) {
	tests := []struct {
		u, v    ID
		overlap int
	}{
		{"0123", "2301", 2}, // Figure 2(a): shares "23"
		{"120", "201", 2},   // paper Section III-B: distance 1
		{"0123", "0123", 4},
		{"0123", "1230", 3},
		{"0123", "4321", 0},
		{"012", "120", 2},
		{"201", "012", 2},
		{"210", "102", 2},
	}
	for _, tt := range tests {
		if got := Overlap(tt.u, tt.v); got != tt.overlap {
			t.Errorf("Overlap(%q, %q) = %d, want %d", tt.u, tt.v, got, tt.overlap)
		}
		want := len(tt.u) - tt.overlap
		if got := Distance(tt.u, tt.v); got != want {
			t.Errorf("Distance(%q, %q) = %d, want %d", tt.u, tt.v, got, want)
		}
	}
}

func TestOverlapLengthMismatch(t *testing.T) {
	if got := Overlap("012", "0123"); got != 0 {
		t.Fatalf("Overlap on length mismatch = %d, want 0", got)
	}
}

// randomKautzID derives a valid Kautz ID for K(d, k) from arbitrary fuzz
// bytes, so quick.Check can drive property tests.
func randomKautzID(d, k int, seed []byte) ID {
	digits := make([]int, k)
	prev := -1
	for i := 0; i < k; i++ {
		var b byte
		if len(seed) > 0 {
			b = seed[i%len(seed)] + byte(i*7)
		} else {
			b = byte(i * 13)
		}
		v := int(b) % (d + 1)
		if v == prev {
			v = (v + 1) % (d + 1)
		}
		digits[i] = v
		prev = v
	}
	return MustID(digits...)
}

func TestQuickShiftPreservesValidity(t *testing.T) {
	f := func(seed []byte, x uint8) bool {
		const d, k = 4, 5
		u := randomKautzID(d, k, seed)
		digit := int(x) % (d + 1)
		if digit == u.Last() {
			digit = (digit + 1) % (d + 1)
		}
		v, err := u.Shift(digit)
		if err != nil {
			return false
		}
		return v.Valid(d, k) && IsSuccessor(u, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapDefinition(t *testing.T) {
	// Overlap must return the length of the LONGEST suffix of u that
	// prefixes v; verify against a naive re-computation.
	naive := func(u, v ID) int {
		for l := len(u); l > 0; l-- {
			if strings.HasPrefix(string(v), string(u[len(u)-l:])) {
				return l
			}
		}
		return 0
	}
	f := func(s1, s2 []byte) bool {
		const d, k = 3, 4
		u := randomKautzID(d, k, s1)
		v := randomKautzID(d, k, s2)
		return Overlap(u, v) == naive(u, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
