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
}

// TestRank checks Rank.Index against a linear count of the marked slots
// below each slot, across word boundaries.
func TestRank(t *testing.T) {
	const n = 200
	b := NewBitset(n)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 150, 199} {
		b.Set(i)
	}
	r := NewRank(b)
	below := 0
	for i := 0; i < n; i++ {
		got, marked := r.Index(i)
		if got != below || marked != b.Get(i) {
			t.Fatalf("Index(%d) = (%d, %v), want (%d, %v)", i, got, marked, below, b.Get(i))
		}
		if marked {
			below++
		}
	}
}

// TestRankReset rebuilds one Rank over bitsets of growing and shrinking
// length: each Reset must answer exactly like a NewRank of the same
// bitset, whatever prefix counts the earlier one left in its capacity.
func TestRankReset(t *testing.T) {
	var r Rank
	for step, n := range []int{130, 700, 64, 300} {
		b := NewBitset(n)
		for i := step; i < n; i += 3 + step {
			b.Set(i)
		}
		r.Reset(b)
		want := NewRank(b)
		for i := 0; i < n; i++ {
			gi, gm := r.Index(i)
			wi, wm := want.Index(i)
			if gi != wi || gm != wm {
				t.Fatalf("step %d: Index(%d) = (%d, %v) after Reset, NewRank (%d, %v)", step, i, gi, gm, wi, wm)
			}
		}
	}
}
