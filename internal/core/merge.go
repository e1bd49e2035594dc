package core

import (
	"cmp"

	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// JoinScratch is one goroutine's scratch for joining candidate rows with a
// g2 list: the position table of the list, at[y] = j+1 for each ys[j] and
// 0 for every other g2 node. A join fills it only when some row reads it
// and clears what it filled before it returns, so the zero value is ready
// and one JoinScratch serves any number of candidate sets, Patches between
// them included. It is not safe for concurrent use.
type JoinScratch struct {
	at []int32
}

// fill returns the position table of ys over n2 g2 nodes.
func (js *JoinScratch) fill(n2 int, ys []graph.NodeID) []int32 {
	if len(js.at) < n2 {
		js.at = make([]int32, n2)
	}
	for j, y := range ys {
		js.at[y] = int32(j + 1)
	}
	return js.at
}

// clear undoes fill(n2, ys).
func (js *JoinScratch) clear(ys []graph.NodeID) {
	for _, y := range ys {
		js.at[y] = 0
	}
}

// joinRows is the one read of the candidate store: for each x = xs[i] in
// turn, it joins row x of the candidate rows and, when bound is not nil,
// of the retained-bound CSR with the ascending g2 list ys. It calls
// cand(i, j, pos) for each ys[j] that is a candidate of row x, at
// candidate position pos, and bound(i, j, b) for each ys[j] whose bound
// row x retains, at index b of prunedCol/prunedBound, in ascending j.
// Every other ys[j] is a non-candidate without a retained bound.
//
// Both rows and ys are v-ascending, so each row is read once, front to
// back: its entries, in column order, are looked up in the position table
// of ys (JoinScratch), filled once for all the rows, so a join costs
// O(|ys|) plus O(1) per row entry. A row longer than ys (a hub row against
// a short list) is instead searched from ys, each y found by a galloping
// search from where the last one was found, O(|ys|·log(n/|ys|)) for a row
// of n entries; that walk skips every y whose label pair with x fails the
// label constraint, one bit of the label table, since neither row holds
// such a pair.
func (cs *CandidateSet) joinRows(js *JoinScratch, xs, ys []graph.NodeID, cand func(i, j, pos int), bound func(i, j, b int)) {
	if cs.allPairs {
		for i, x := range xs {
			base := int(x) * cs.n2
			for j, y := range ys {
				cand(i, j, base+int(y))
			}
		}
		return
	}
	if len(ys) == 0 {
		return
	}
	var at []int32 // the position table of ys, once a row has read it
	for i, x := range xs {
		rowLo := int(cs.rowOff[x])
		row := cs.candPairs[rowLo:cs.rowOff[x+1]]
		var col []graph.NodeID
		var colLo int
		if bound != nil && cs.prunedOff != nil {
			colLo = int(cs.prunedOff[x])
			col = cs.prunedCol[colLo:cs.prunedOff[x+1]]
		}
		n := len(row) + len(col)
		if n == 0 {
			continue
		}
		pi := 0
		if n <= len(ys) {
			// Look the rows' entries up in ys, in column order.
			if at == nil {
				at = js.fill(cs.n2, ys)
			}
			for ci, k := range row {
				y := keyCol(k)
				for ; pi < len(col) && col[pi] < y; pi++ {
					if j := at[col[pi]]; j != 0 {
						bound(i, int(j-1), colLo+pi)
					}
				}
				if j := at[y]; j != 0 {
					cand(i, int(j-1), rowLo+ci)
				}
			}
			for ; pi < len(col); pi++ {
				if j := at[col[pi]]; j != 0 {
					bound(i, int(j-1), colLo+pi)
				}
			}
			continue
		}
		// Search the rows from ys, skipping each label-ineligible y.
		var eligible []uint64 // x's row of the label table; nil when every pair is eligible
		if !cs.allEligible {
			eligible = cs.table.Row(int(cs.labels1[x]))
		}
		key, ci := pairbits.MakeKey(x, 0), 0
		for j, y := range ys {
			if eligible != nil && !isSet(eligible, cs.labels2[y]) {
				continue
			}
			if ci < len(row) {
				k := key | pairbits.Key(uint32(y))
				if ci += gallop(row[ci:], k); ci < len(row) && row[ci] == k {
					cand(i, j, rowLo+ci)
					ci++
					continue // a candidate holds no retained bound
				}
			}
			if pi < len(col) {
				if pi += gallop(col[pi:], y); pi < len(col) && col[pi] == y {
					bound(i, j, colLo+pi)
					pi++
				}
			}
			if ci == len(row) && pi == len(col) {
				break
			}
		}
	}
	if at != nil {
		js.clear(ys)
	}
}

// isSet reports whether bit l of the bit row b is set.
func isSet(b []uint64, l graph.Label) bool { return b[uint32(l)>>6]&(1<<(uint32(l)&63)) != 0 }

// keyCol is the column v of a candidate key (u, v).
func keyCol(k pairbits.Key) graph.NodeID { return graph.NodeID(uint32(k)) }

// gallop returns the first index i of the ascending s with s[i] ≥ t, or
// len(s): it probes s at 1, 2, 4, … until it passes t, then binary-searches
// the last gap, so an answer near the front costs a few comparisons.
func gallop[T cmp.Ordered](s []T, t T) int {
	if len(s) == 0 || s[0] >= t {
		return 0
	}
	hi := 1 // s[hi/2] < t throughout
	for hi < len(s) && s[hi] < t {
		hi *= 2
	}
	lo := hi/2 + 1
	hi = min(hi, len(s))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ForEachCandidateDependent calls fn with the candidate position of every
// candidate whose Equation 3 update reads FSim(x, y) — the reverse
// adjacency of the worklist. Every mapping operator consumes the full
// previous-score cross product of the neighbour sets it maps, so the
// dependency structure is mapping-independent: (u, v) reads (x, y) iff
// x ∈ N⁺(u) ∧ y ∈ N⁺(v) (the w⁺ term, equivalently u ∈ N⁻(x) ∧
// v ∈ N⁻(y)) or x ∈ N⁻(u) ∧ y ∈ N⁻(v) (the w⁻ term), and a direction of
// zero weight reads nothing. It joins the rows of N⁻(x) with N⁻(y) under
// w⁺, and of N⁺(x) with N⁺(y) under w⁻ (joinRows), with js as scratch.
func (cs *CandidateSet) ForEachCandidateDependent(js *JoinScratch, x, y graph.NodeID, fn func(pos int)) {
	cand := func(_, _, pos int) { fn(pos) }
	if cs.opts.WPlus > 0 {
		cs.joinRows(js, cs.g1.In(x), cs.g2.In(y), cand, nil)
	}
	if cs.opts.WMinus > 0 {
		cs.joinRows(js, cs.g1.Out(x), cs.g2.Out(y), cand, nil)
	}
}

// ForEachCandidateIn calls fn with the candidate position of every
// candidate (x, y) with x ∈ xs and y ∈ ys, row by row and ascending y
// within a row, with js as scratch; ys must be ascending.
func (cs *CandidateSet) ForEachCandidateIn(js *JoinScratch, xs, ys []graph.NodeID, fn func(pos int)) {
	cs.joinRows(js, xs, ys, func(_, _, pos int) { fn(pos) }, nil)
}

// isRead reports whether some candidate's Equation 3 update reads (x, y).
func (cs *CandidateSet) isRead(js *JoinScratch, x, y graph.NodeID) bool {
	read := false
	cs.ForEachCandidateDependent(js, x, y, func(int) { read = true })
	return read
}
