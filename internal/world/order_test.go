package world

import (
	"math/rand"
	"slices"
	"testing"

	"refer/internal/geo"
	"refer/internal/mobility"
)

// orderSizes are the world sizes the ordering pass is checked at: one word,
// either side of a word boundary, either side of a summary-word boundary
// (4 096 nodes), and a world whose summary level spans three words.
var orderSizes = []int{1, 63, 64, 65, 4095, 4096, 4097, 10007}

// requireZeroBitmap fails unless every word and summary word of b is zero
// and b has room for the IDs below n, summary level included.
func requireZeroBitmap(t *testing.T, b *idBitmap, n int) {
	t.Helper()
	if len(b.words)*64 < n || len(b.summary)*64 < len(b.words) {
		t.Fatalf("bitmap has %d words and %d summary words for %d nodes", len(b.words), len(b.summary), n)
	}
	for i, w := range b.words {
		if w != 0 {
			t.Fatalf("word %d is %#x, want 0", i, w)
		}
	}
	for i, s := range b.summary {
		if s != 0 {
			t.Fatalf("summary word %d is %#x, want 0", i, s)
		}
	}
}

// checkOrder sets ids (distinct, below n) in b, drains them into buf and
// requires slices.Sort's order on a copy and an all-zero bitmap after.
func checkOrder(t *testing.T, b *idBitmap, n int, ids, buf []NodeID) []NodeID {
	t.Helper()
	for _, id := range ids {
		b.set(id)
	}
	buf = b.drain(buf[:0])
	want := slices.Clone(ids)
	slices.Sort(want)
	if !slices.Equal(buf, want) {
		t.Fatalf("n=%d: drain of %d IDs = %v, want %v", n, len(ids), buf, want)
	}
	requireZeroBitmap(t, b, n)
	return buf
}

// randomIDs returns k distinct IDs below n in random order.
func randomIDs(rng *rand.Rand, n, k int) []NodeID {
	ids := make([]NodeID, 0, k)
	for _, id := range rng.Perm(n)[:k] {
		ids = append(ids, NodeID(id))
	}
	return ids
}

// boundaryIDs returns the distinct IDs below n that sit on or next to a word
// or summary-word boundary, in descending order.
func boundaryIDs(n int) []NodeID {
	var ids []NodeID
	for id := n - 1; id >= 0; id-- {
		if r := id % 64; r <= 1 || r == 63 || id%4096 <= 64 || id%4096 >= 4095-64 {
			ids = append(ids, NodeID(id))
		}
	}
	return ids
}

// TestNeighborOrder checks the fill's ordering pass against slices.Sort on
// one bitmap grown one node at a time, as AddNode grows it, with fills in
// between at every size in orderSizes: random sets of every density, the
// boundary IDs, the highest ID alone and the whole world.
func TestNeighborOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var b idBitmap
	var buf []NodeID
	size := 0
	for _, n := range orderSizes {
		for ; size < n; size++ {
			b.grow(size + 1)
		}
		requireZeroBitmap(t, &b, n)
		for _, k := range []int{0, 1, min(n, 2), min(n, 7), min(n, 110), min(n, 600), n / 2, n} {
			buf = checkOrder(t, &b, n, randomIDs(rng, n, k), buf)
		}
		buf = checkOrder(t, &b, n, boundaryIDs(n), buf)
		buf = checkOrder(t, &b, n, []NodeID{NodeID(n - 1)}, buf)
	}
}

// FuzzNeighborOrder feeds random distinct ID sets through the ordering pass
// at world sizes up to 10 240, then adds nodes and fills again, always
// against slices.Sort and always ending on an all-zero bitmap.
func FuzzNeighborOrder(f *testing.F) {
	for i, n := range orderSizes {
		f.Add(int64(i), uint16(n), uint16(n/3+1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, count uint16, added uint8) {
		n := int(size)%10240 + 1
		rng := rand.New(rand.NewSource(seed))
		var b idBitmap
		b.grow(n)
		buf := checkOrder(t, &b, n, randomIDs(rng, n, int(count)%(n+1)), nil)
		grown := n + int(added)
		for m := n + 1; m <= grown; m++ {
			b.grow(m)
		}
		ids := randomIDs(rng, grown, int(count)%(grown+1))
		for id := NodeID(n); int(id) < grown; id++ {
			if !slices.Contains(ids, id) {
				ids = append(ids, id) // every added node is in the set
			}
		}
		checkOrder(t, &b, grown, ids, buf)
	})
}

// FuzzIDBitmap drives one bitmap through an interleaving of set, has, grow,
// reset and drain, one operation per byte of ops, against a map. IDs are
// drawn from the whole world, from the word and summary-word boundaries and
// as the highest ID, in equal shares. The bitmap must be all zero after
// every reset and drain, and must agree with the map on every ID at the end.
func FuzzIDBitmap(f *testing.F) {
	for i, n := range orderSizes {
		f.Add(int64(i), uint16(n), []byte{0, 1, 2, 8, 2, 4, 3, 0, 0, 0x0c, 1, 3, 200, 2, 5, 1, 0, 4})
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, ops []byte) {
		n := int(size)%10240 + 1
		rng := rand.New(rand.NewSource(seed))
		edges := boundaryIDs(n)
		var b idBitmap
		b.grow(n)
		want := map[NodeID]bool{}
		draw := func() NodeID {
			switch rng.Intn(3) {
			case 0:
				return NodeID(rng.Intn(n))
			case 1:
				return edges[rng.Intn(len(edges))]
			}
			return NodeID(n - 1)
		}
		var buf []NodeID
		for _, op := range ops {
			switch op % 5 {
			case 0, 1:
				id := draw()
				b.set(id)
				want[id] = true
			case 2:
				if id := draw(); b.has(id) != want[id] {
					t.Fatalf("n=%d: has(%d) = %v, want %v", n, id, b.has(id), want[id])
				}
			case 3:
				n += int(op >> 3)
				b.grow(n)
			case 4:
				if op&8 == 0 {
					b.reset()
				} else {
					buf = b.drain(buf[:0])
					var sorted []NodeID
					for id := range want {
						sorted = append(sorted, id)
					}
					slices.Sort(sorted)
					if !slices.Equal(buf, sorted) {
						t.Fatalf("n=%d: drain = %v, want %v", n, buf, sorted)
					}
				}
				clear(want)
				requireZeroBitmap(t, &b, n)
			}
		}
		for id := NodeID(0); int(id) < n; id++ {
			if b.has(id) != want[id] {
				t.Fatalf("n=%d: has(%d) = %v, want %v", n, id, b.has(id), want[id])
			}
		}
		b.reset()
		requireZeroBitmap(t, &b, n)
	})
}

// TestNeighborOrderAcrossAddNode drives the pass through the world: 4 096
// static sensors stacked 64 to a spot, so a neighbor list holds IDs from
// every bitmap word, then one more node that grows both levels between
// fills. Every list must equal its sorted, deduplicated copy, and the bitmap
// must be all zero after every query.
func TestNeighborOrderAcrossAddNode(t *testing.T) {
	w := New(Config{Region: geo.Square(500), Seed: 43})
	spot := func(id int) geo.Point {
		return geo.Point{X: float64(id%64%8) * 60, Y: float64(id%64/8) * 60}
	}
	const n = 4096
	for id := 0; id < n; id++ {
		w.AddNode(Sensor, mobility.Static{P: spot(id)}, 100, 0)
	}
	gs := w.space.(*gridSpace)
	query := func(id NodeID) []NodeID {
		t.Helper()
		nb := w.Neighbors(nil, id)
		want := slices.Clone(nb)
		slices.Sort(want)
		if !slices.Equal(nb, slices.Compact(want)) || slices.Contains(nb, id) {
			t.Fatalf("t=%v: neighbors of %d are not in strict NodeID order without the node itself: %v", w.Now(), id, nb)
		}
		requireZeroBitmap(t, &gs.order, len(w.nodes))
		return nb
	}
	for _, id := range []NodeID{0, 63, 64, 4095} {
		if nb := query(id); len(nb) < 200 || nb[len(nb)-1] < n-64 {
			t.Fatalf("neighbors of %d = %d nodes up to %d, want over 200 reaching past ID %d", id, len(nb), nb[len(nb)-1], n-64)
		}
	}
	added := w.AddNode(Sensor, mobility.Static{P: spot(0)}, 100, 0).ID
	if added != n {
		t.Fatalf("added node has ID %d, want %d", added, n)
	}
	if len(gs.order.summary) < 2 {
		t.Fatalf("summary level has %d words after node %d joined, want 2", len(gs.order.summary), n)
	}
	for _, id := range []NodeID{0, 1, 9, 4032, added} {
		nb := query(id)
		if id != added && !slices.Contains(nb, added) {
			t.Fatalf("neighbors of %d miss node %d at the same spot", id, added)
		}
	}
}
