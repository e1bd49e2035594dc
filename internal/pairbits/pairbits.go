// Package pairbits holds the two primitive encodings shared by the batch
// engine and the query subsystem: a node pair packed into one comparable
// word, and a fixed-size bit vector marking pair slots. Both packages must
// agree on the packing (u in the high half, v in the low half), so it
// lives here rather than being duplicated.
package pairbits

import (
	"math/bits"

	"fsim/internal/graph"
)

// Key packs a (u, v) node pair into one comparable word.
type Key uint64

// MakeKey packs u into the high 32 bits and v into the low 32.
func MakeKey(u, v graph.NodeID) Key { return Key(uint64(uint32(u))<<32 | uint64(uint32(v))) }

// Split unpacks the pair.
func (k Key) Split() (graph.NodeID, graph.NodeID) {
	return graph.NodeID(k >> 32), graph.NodeID(uint32(k))
}

// Bitset is a fixed-size bit vector over pair slots.
type Bitset []uint64

// NewBitset returns an all-zero bitset covering n slots.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set marks slot i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear unmarks slot i.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Get reports whether slot i is marked.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of marked slots.
func (b Bitset) Count() (total int) {
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return
}

// ClearAll unmarks every slot.
func (b Bitset) ClearAll() {
	for i := range b {
		b[i] = 0
	}
}

// Rank answers rank queries over a bitset: where a marked slot falls among
// all marked slots in ascending order. It keeps one prefix count per word,
// so a query is two loads and a popcount. The bitset must not change while
// the rank is in use; a Rank is then safe for concurrent readers.
type Rank struct {
	bits Bitset
	pre  []int32
}

// NewRank builds the per-word prefix counts of b, which may mark at most
// math.MaxInt32 slots.
func NewRank(b Bitset) Rank {
	var r Rank
	r.Reset(b)
	return r
}

// Reset rebuilds r over b, reusing the capacity of r's prefix counts.
func (r *Rank) Reset(b Bitset) {
	if cap(r.pre) < len(b) {
		r.pre = make([]int32, len(b))
	}
	r.bits, r.pre = b, r.pre[:len(b)]
	n := int32(0)
	for i, w := range b {
		r.pre[i] = n
		n += int32(bits.OnesCount64(w))
	}
}

// Index returns the number of marked slots below slot i — slot i's index
// among the marked slots when it is one — and whether slot i is marked.
func (r Rank) Index(i int) (int, bool) {
	w := r.bits[i/64]
	bit := uint64(1) << (uint(i) % 64)
	return int(r.pre[i/64]) + bits.OnesCount64(w&(bit-1)), w&bit != 0
}
