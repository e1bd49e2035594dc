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

// Reset returns an all-clear bitset covering n slots, reusing b's capacity
// when it suffices.
func Reset(b Bitset, n int) Bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return NewBitset(n)
	}
	b = b[:words]
	b.ClearAll()
	return b
}

// ClearAll unmarks every slot.
func (b Bitset) ClearAll() {
	for i := range b {
		b[i] = 0
	}
}
