package pairbits

import (
	"testing"

	"fsim/internal/graph"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, p := range [][2]graph.NodeID{{0, 0}, {1, 2}, {1 << 20, 3}, {2147483647, 2147483647}} {
		u, v := MakeKey(p[0], p[1]).Split()
		if u != p[0] || v != p[1] {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", p[0], p[1], u, v)
		}
	}
	// Keys order lexicographically by (u, v) — the dense pruned list's
	// binary search relies on it.
	if MakeKey(1, 100) >= MakeKey(2, 0) || MakeKey(3, 1) >= MakeKey(3, 2) {
		t.Fatal("keys are not (u, v)-lexicographic")
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 || !b.Get(129) || b.Get(1) {
		t.Fatalf("bitset state wrong: count=%d", b.Count())
	}
	b.Clear(64)
	b.Clear(1)
	if b.Count() != 3 || b.Get(64) || !b.Get(63) {
		t.Fatalf("Clear(64) left count=%d", b.Count())
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatal("ClearAll left bits set")
	}
	b.Set(100)
	if r := Reset(b, 70); len(r) != 2 || &r[0] != &b[0] || r.Count() != 0 || b[1] != 0 {
		t.Fatalf("Reset(b, 70) = %d words, count %d; want b's first 2 words, all clear", len(r), r.Count())
	}
	if r := Reset(b, 200); len(r) != 4 || r.Count() != 0 {
		t.Fatalf("Reset(b, 200) = %d words, count %d; want 4 clear words", len(r), r.Count())
	}
}
