package core

import (
	"math/bits"

	"fsim/internal/graph"
)

// labelMask is the row eligibility mask of one neighbour list s1 of a g1
// row (N⁺(u) or N⁻(u)): for every g2 label b, the bitmask P[b] of the
// positions i of s1 whose label may pair with b, L(ℓ1(s1[i]), b) ≥ θ, in
// ⌈|s1|/64⌉ words. The Eq. 6 counts of the row's pairs read it (the
// build, RowBounds, Patch): a neighbour y of v has the eligible partners
// P[ℓ2(y)] in s1, so the counts cost O(|N(v)|) mask reads instead of
// |N(u)|·|N(v)| bit-matrix reads. The mapping operators read no mask:
// they read the candidate store's rows, which hold no ineligible pair.
//
// build walks each neighbour's row of matrix words once, setting its bit
// in P[b] for every eligible b: about |s1|·(|Σ2|/64 + eligible labels per
// label) in all.
//
// Between rows the masks are kept all zero except the labels in set,
// which the next build clears, so a build touches no label the row never
// set.
type labelMask struct {
	words int           // ⌈|s1|/64⌉
	bits  []uint64      // P[b] at bits[b·words : (b+1)·words]
	set   []graph.Label // the labels whose P[b] may be non-zero
	acc   []uint64      // eligibleCounts' union of the masks read
}

// build makes m the mask of neighbour list s1 of a g1 row of cs.
func (m *labelMask) build(cs *CandidateSet, s1 []graph.NodeID) {
	for _, b := range m.set {
		for w, at := 0, int(b)*m.words; w < m.words; w++ {
			m.bits[at+w] = 0 // a word or two: cheaper inline than a memclr call
		}
	}
	m.set = m.set[:0]
	m.words = (len(s1) + 63) / 64
	if len(m.acc) < m.words {
		m.acc = make([]uint64, m.words)
	}
	if n := cs.table.RowWords() * 64 * m.words; len(m.bits) < n {
		m.bits = make([]uint64, n) // only the labels in set were not zero
	}
	for i, x := range s1 {
		at, bit := i/64, uint64(1)<<uint(i%64)
		for w, word := range cs.table.Row(int(cs.labels1[x])) {
			for ; word != 0; word &= word - 1 {
				b := w*64 + bits.TrailingZeros64(word)
				p := &m.bits[b*m.words+at]
				if *p == 0 { // a label is recorded once per word it sets
					m.set = append(m.set, graph.Label(b))
				}
				*p |= bit
			}
		}
	}
}

// of returns P[b], the positions of the row's neighbours that may pair
// with a node of g2 label b (all zero when none may).
func (m *labelMask) of(b graph.Label) []uint64 {
	return m.bits[int(b)*m.words:][:m.words]
}

// eligibleCounts returns how many nodes of the mask's list s1 (e1) and of
// s2 (e2) have at least one label-eligible partner on the other side: e1
// is the population of the union of P[ℓ2(y)] over y ∈ s2, and e2 counts
// the y whose P[ℓ2(y)] is not empty.
func (m *labelMask) eligibleCounts(labels2 []graph.Label, s2 []graph.NodeID) (e1, e2 int) {
	if m.words == 1 { // |s1| ≤ 64, the common case: one word of union
		var acc uint64
		for _, y := range s2 {
			if p := m.of(labels2[y])[0]; p != 0 {
				e2++
				acc |= p
			}
		}
		return bits.OnesCount64(acc), e2
	}
	acc := m.acc[:m.words]
	clear(acc)
	for _, y := range s2 {
		var nz uint64
		for w, word := range m.of(labels2[y]) {
			acc[w] |= word
			nz |= word
		}
		if nz != 0 {
			e2++
		}
	}
	for _, word := range acc {
		e1 += bits.OnesCount64(word)
	}
	return e1, e2
}

// rowMasks holds the masks of one g1 row u, one per weighted direction
// (out: N⁺(u), in: N⁻(u)). The zero value describes no row. A rowMasks
// must not outlive the candidate set state it was built on: RowBounds
// resets its pooled ones before use, and Patch and the build use their
// own.
type rowMasks struct {
	row     int // u+1 of the row described; 0 for none
	out, in labelMask
}

// reset forgets the described row, so the next use rebuilds.
func (m *rowMasks) reset() { m.row = 0 }

// maskRow readies m for row u of cs, rebuilding the masks of the weighted
// directions when m describes another row, and reports whether row u
// reads masks at all. It does not when the counts need none: MapProduct
// bounds by |S1|·|S2|, and when every label pair is eligible the Eq. 6
// counts are the list sizes.
func (cs *CandidateSet) maskRow(m *rowMasks, u graph.NodeID) bool {
	if cs.ops.Mapping == MapProduct || cs.allEligible {
		return false
	}
	if m.row != int(u)+1 {
		m.row = int(u) + 1
		if cs.opts.WPlus > 0 {
			m.out.build(cs, cs.g1.Out(u))
		}
		if cs.opts.WMinus > 0 {
			m.in.build(cs, cs.g1.In(u))
		}
	}
	return true
}
