package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/stats"
	"fsim/internal/strsim"
)

// CandidateSet is the candidate component shared by the batch engine
// (Compute) and the single-source query subsystem (internal/query): the
// candidate map Hc of Algorithm 1's Initializing step, the label layer,
// and the §3.4 upper bounds of pruned pairs.
//
// The label layer is one strsim.Table: the label constraint L ≥ θ
// (Remark 2) as a |Σ1|×|Σ2| bit matrix, and L only for the label pairs
// that pass it. Every θ test reads the bit matrix: Eligible and
// candidate's gate read one bit, the build's column lists walk a label's
// row of words, and the §3.4 bound reads the row eligibility masks built
// from it (labelMask). L is read only where a value is needed, always for
// an eligible pair (LabelSim, RowBounds, initScore).
//
// Hc is stored one of two ways, chosen by storeShape: all pairs, at
// position u·|V2|+v, when θ = 0 leaves every label pair eligible, pruning
// is off and the universe fits Options.DenseCapPairs; otherwise candidate
// rows, row-major and ascending v (candPairs/rowOff), with the §3.4 bounds
// of only the pruned pairs some candidate's Equation 3 update reads in a
// second CSR beside them. StandIn evaluates any other pruned pair's bound
// on demand, bit for bit. Every hot read (an Equation 3 update, a worklist
// mark, a closure's admission) joins the rows of a g1 neighbour list with
// a sorted g2 list (joinRows), and a pair the join does not yield reads 0;
// Contains and Position binary-search one row, for the reads off those
// paths.
//
// A CandidateSet changes only through Patch, which its owner runs under a
// write lock that excludes every reader (query.Index.Apply); between
// patches it is read-only and safe to share between concurrent readers.
type CandidateSet struct {
	g1, g2 *graph.Graph
	opts   Options // normalized
	ops    *Operators
	table  *strsim.Table
	n1, n2 int

	// allEligible marks a table in which every label pair is eligible
	// (θ = 0 with a label function that is never NaN or negative): every
	// neighbour pair is eligible, so the Eq. 6 counts are the list sizes
	// and no row builds eligibility masks.
	allEligible bool
	// boundMasks pools the row masks of RowBounds calls.
	boundMasks sync.Pool

	labels1, labels2 []graph.Label

	// dense marks a pair universe within Options.DenseCapPairs; only the
	// snapshot's store-shape byte records it apart from allPairs.
	dense bool
	// allPairs marks the all-pairs store (θ = 0 with every label pair
	// eligible, no pruning, a dense universe): every pair is a candidate
	// and the loops iterate rows directly.
	allPairs bool
	// The candidate rows (nil in the allPairs case): row u's candidates are
	// candPairs[rowOff[u]:rowOff[u+1]], ascending v.
	candPairs []pairbits.Key
	rowOff    []int32

	// Eq. 6 bounds of the pruned pairs some candidate reads, retained
	// only when α > 0 (all three nil otherwise), under the rowOff
	// contract: row u's retained columns are
	// prunedCol[prunedOff[u]:prunedOff[u+1]], ascending, with their bounds
	// at the same positions of prunedBound. The stand-in of such a pair is
	// α·bound.
	prunedOff   []int32
	prunedCol   []graph.NodeID
	prunedBound []float64

	prunedCount int
}

// NewCandidateSet validates (g1, g2, opts), normalizes the options and
// enumerates the candidate map. g1 and g2 may be the same graph
// (self-similarity, as in the paper's single-graph experiments).
func NewCandidateSet(g1, g2 *graph.Graph, opts Options) (*CandidateSet, error) {
	cs, err := newCandidateBase(g1, g2, opts)
	if err != nil {
		return nil, err
	}
	if err := cs.build(); err != nil {
		return nil, err
	}
	return cs, nil
}

// newCandidateBase validates (g1, g2, opts), normalizes the options and
// derives everything a CandidateSet holds except its enumeration: the
// label caches, the label table and the store shape.
func newCandidateBase(g1, g2 *graph.Graph, opts Options) (*CandidateSet, error) {
	if g1 == nil || g2 == nil {
		return nil, errors.New("core: nil graph")
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	if err := checkPinDiagonal(&opts, n1, n2); err != nil {
		return nil, err
	}
	cs := &CandidateSet{
		g1: g1, g2: g2,
		opts:    opts,
		ops:     opts.Operators,
		n1:      n1,
		n2:      n2,
		labels1: nodeLabels(make([]graph.Label, 0, n1), g1, 0),
		labels2: nodeLabels(make([]graph.Label, 0, n2), g2, 0),
	}
	if err := cs.deriveLabelLayer(g1, g2); err != nil {
		return nil, err
	}
	cs.dense, cs.allPairs = storeShape(n1, n2, &cs.opts, cs.allEligible)
	return cs, nil
}

// deriveLabelLayer fills the label table of the vocabularies of g1 and g2
// at θ and derives the layer's summary counts from its bit count. It
// leaves cs unchanged when the fill fails.
func (cs *CandidateSet) deriveLabelLayer(g1, g2 *graph.Graph) error {
	names1, names2 := g1.LabelNames(), g2.LabelNames()
	table, err := strsim.NewTable(cs.opts.Label, names1, names2, cs.opts.Theta, cs.opts.Threads)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	cs.table = table
	cs.allEligible = table.EligiblePairs() == len(names1)*len(names2)
	return nil
}

// checkPinDiagonal rejects PinDiagonal on graphs of different sizes.
func checkPinDiagonal(opts *Options, n1, n2 int) error {
	if opts.PinDiagonal && n1 != n2 {
		return fmt.Errorf("core: PinDiagonal needs equally sized graphs, got |V1|=%d |V2|=%d", n1, n2)
	}
	return nil
}

// nodeLabels appends the labels of g's nodes from id `from` on to dst.
func nodeLabels(dst []graph.Label, g *graph.Graph, from int) []graph.Label {
	for u := from; u < g.NumNodes(); u++ {
		dst = append(dst, g.Label(graph.NodeID(u)))
	}
	return dst
}

// storeShape decides how the candidate map of an n1×n2 pair universe is
// stored. dense reports that the pair universe fits Options.DenseCapPairs
// AND the platform int, both checked in 64-bit arithmetic, so the
// all-pairs store's u·n2+v never wraps a 32-bit int. allPairs selects that
// store: a dense universe in which every pair is a candidate — θ = 0,
// every label pair eligible (allEligible; a custom Options.Label may be
// NaN or negative, failing L ≥ 0) and no pruning.
func storeShape(n1, n2 int, opts *Options, allEligible bool) (dense, allPairs bool) {
	pairs := int64(n1) * int64(n2)
	dense = pairs <= int64(opts.DenseCapPairs) && pairs <= int64(maxInt)
	return dense, dense && opts.Theta == 0 && allEligible && opts.UpperBoundOpt == nil
}

// maxInt is the platform's largest int (untyped, usable in int64 compares).
const maxInt = int(^uint(0) >> 1)

// maxCandidates bounds the candidate enumeration: row offsets store
// positions as int32. Graphs that reach it need a higher Theta or pruning.
const maxCandidates = math.MaxInt32

// build enumerates Hc (Algorithm 1's Initializing step): pairs passing the
// label constraint (L ≥ θ) and, when upper-bound updating is on, pairs
// whose Eq. 6 bound exceeds β.
//
// Unless every label pair is eligible, the enumeration is label-blocked:
// row u probes only the g2 nodes whose label may pair with u's, from one
// ascending column list per g1 label (eligibleColumns), making
// construction O(|Σ1|·|Σ2| + eligible pairs) instead of O(|V1|·|V2|) —
// the difference between seconds and hours on the 10^5–10^6-edge graphs
// cmd/fsimgen generates. Both paths
// funnel every probed pair through the candidate test, so the candidate
// decisions are identical by construction. Each worker builds the row
// eligibility masks of a row once, for the Eq. 6 bounds of all its pairs.
//
// Rows are independent, so Options.Threads workers claim chunks of rows
// from a shared cursor, each appending the chunk's candidates and the
// bounds of its pruned pairs to its own buffers and recording the chunk's
// extent there. The chunks are then concatenated in row order into exactly
// sized arrays, deriveRowOff derives the row offsets from the result, and
// retainRead keeps the bounds that candidates read, all on the calling
// goroutine: the set is the same at any thread count and chunk schedule.
func (cs *CandidateSet) build() error {
	if cs.allPairs {
		return nil // every pair is a candidate
	}
	keepBounds := cs.keepsBounds()
	var cols [][]graph.NodeID // per g1 label, its eligible g2 nodes ascending
	if !cs.allEligible {
		cols = cs.eligibleColumns()
	}
	// Each row stores the size of its retained-bound row at prunedOff[u+1];
	// rows are disjoint, so the workers never share an entry.
	if keepBounds {
		cs.prunedOff = make([]int32, cs.n1+1)
	}
	decideRow := func(w *rowWorker, u graph.NodeID) {
		kept := len(w.prunedCol)
		if cols != nil {
			for _, v := range cols[cs.labels1[u]] {
				w.decide(cs, u, v, keepBounds)
			}
		} else {
			for v := 0; v < cs.n2; v++ {
				w.decide(cs, u, graph.NodeID(v), keepBounds)
			}
		}
		if keepBounds {
			cs.prunedOff[u+1] = int32(len(w.prunedCol) - kept)
		}
	}

	rows := chunkSize(cs.n1, cs.opts.Threads, buildChunkRows)
	segs := make([]rowSegment, (cs.n1+rows-1)/rows)
	workers := make([]rowWorker, max(min(cs.opts.Threads, len(segs)), 1))
	var cursor atomic.Int64
	claim := func(w *rowWorker) {
		for {
			c := int(cursor.Add(1)) - 1
			if c >= len(segs) {
				return
			}
			seg := rowSegment{w: w, cand: len(w.cand), kept: len(w.prunedCol)}
			for u := c * rows; u < min((c+1)*rows, cs.n1); u++ {
				decideRow(w, graph.NodeID(u))
			}
			seg.candEnd, seg.keptEnd = len(w.cand), len(w.prunedCol)
			segs[c] = seg
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(workers); i++ {
		wg.Add(1)
		go func(w *rowWorker) {
			defer wg.Done()
			claim(w)
		}(&workers[i])
	}
	claim(&workers[0]) // the calling goroutine is worker 0
	wg.Wait()

	if keepBounds {
		if row := rowOffsets(cs.prunedOff, maxCandidates); row >= 0 {
			return fmt.Errorf("core: retained §3.4 bounds exceed %d pairs at row %d of %d (|V1|·|V2|=%d·%d); raise Theta or set Alpha to 0",
				maxCandidates, row, cs.n1, cs.n1, cs.n2)
		}
		if n := cs.prunedOff[cs.n1]; n > 0 {
			cs.prunedCol = make([]graph.NodeID, 0, n)
			cs.prunedBound = make([]float64, 0, n)
		}
	}
	nCand := 0
	for _, seg := range segs {
		nCand += seg.candEnd - seg.cand
	}
	if nCand > 0 {
		cs.candPairs = make([]pairbits.Key, 0, nCand)
	}
	for _, seg := range segs {
		w := seg.w
		cs.candPairs = append(cs.candPairs, w.cand[seg.cand:seg.candEnd]...)
		cs.prunedCol = append(cs.prunedCol, w.prunedCol[seg.kept:seg.keptEnd]...)
		cs.prunedBound = append(cs.prunedBound, w.prunedBound[seg.kept:seg.keptEnd]...)
	}
	for i := range workers {
		cs.prunedCount += workers[i].pruned
	}
	if err := cs.deriveRowOff(); err != nil {
		return err
	}
	if keepBounds {
		return cs.retainRead(false)
	}
	return nil
}

// retainRead compacts the bound CSR to the pairs that some candidate's
// Equation 3 update reads: for each g1 node x it stamps the g2 nodes read
// with x (stampReads) and keeps the entries of x's bound row whose column
// is stamped. After a build the CSR holds every label-eligible
// non-candidate, so no read needs a test. check is for a CSR from
// elsewhere (NewCandidateSetFromData): it refuses a label-eligible read
// that is in neither of x's rows, which lacks a bound the engine needs.
func (cs *CandidateSet) retainRead(check bool) error {
	hit := pairbits.NewBitset(len(cs.prunedCol))
	n := 0 // entries hit
	// stamp[y] is x+1 once a candidate reads (x, y), and -(x+1) once the
	// read is met in one of x's rows.
	stamp := make([]int32, cs.n2)
	var reads []graph.NodeID
	for x := 0; x < cs.n1; x++ {
		s := int32(x + 1)
		reads = cs.stampReads(stamp, graph.NodeID(x), reads[:0])
		for b := cs.prunedOff[x]; b < cs.prunedOff[x+1]; b++ {
			if y := cs.prunedCol[b]; stamp[y] == s {
				stamp[y] = -s
				hit.Set(int(b))
				n++
			}
		}
		if !check {
			continue
		}
		for _, k := range cs.candPairs[cs.rowOff[x]:cs.rowOff[x+1]] {
			if y := keyCol(k); stamp[y] == s {
				stamp[y] = -s
			}
		}
		for _, y := range reads {
			if stamp[y] == s && cs.Eligible(graph.NodeID(x), y) {
				return fmt.Errorf("core: pruned pair (%d,%d), which a candidate reads, has no retained §3.4 bound", x, y)
			}
		}
	}
	col := make([]graph.NodeID, 0, n)
	bnd := make([]float64, 0, n)
	for u := 0; u < cs.n1; u++ {
		lo, hi := cs.prunedOff[u], cs.prunedOff[u+1]
		cs.prunedOff[u] = int32(len(col))
		for i := lo; i < hi; i++ {
			if hit.Get(int(i)) {
				col = append(col, cs.prunedCol[i])
				bnd = append(bnd, cs.prunedBound[i])
			}
		}
	}
	cs.prunedOff[cs.n1] = int32(n)
	cs.prunedCol, cs.prunedBound = col, bnd
	return nil
}

// stampReads sets stamp[y] = x+1 for every y that some candidate's
// Equation 3 update reads with x — y ∈ N⁺(v) for each candidate (u, v)
// with u ∈ N⁻(x) under w⁺, y ∈ N⁻(v) with u ∈ N⁺(x) under w⁻ — and
// appends each such y to reads once.
func (cs *CandidateSet) stampReads(stamp []int32, x graph.NodeID, reads []graph.NodeID) []graph.NodeID {
	s := int32(x + 1)
	for d, w := range [2]float64{cs.opts.WPlus, cs.opts.WMinus} {
		if w <= 0 {
			continue
		}
		us := cs.g1.In(x)
		if d == 1 {
			us = cs.g1.Out(x)
		}
		for _, u := range us {
			for _, k := range cs.candPairs[cs.rowOff[u]:cs.rowOff[u+1]] {
				ys := cs.g2.Out(keyCol(k))
				if d == 1 {
					ys = cs.g2.In(keyCol(k))
				}
				for _, y := range ys {
					if stamp[y] != s {
						stamp[y] = s
						reads = append(reads, y)
					}
				}
			}
		}
	}
	return reads
}

// deriveRowOff derives the row offsets of the candidate enumeration
// candPairs into a fresh array, refusing a map whose positions would
// overflow them. It is the one place the rows are indexed — build, Patch
// and NewCandidateSetFromData all end in it.
func (cs *CandidateSet) deriveRowOff() error {
	cs.rowOff = make([]int32, cs.n1+1)
	for _, k := range cs.candPairs {
		u, _ := k.Split()
		cs.rowOff[u+1]++
	}
	if row := rowOffsets(cs.rowOff, maxCandidates); row >= 0 {
		return fmt.Errorf("core: candidate map exceeds %d pairs at row %d of %d (|V1|·|V2|=%d·%d); raise Theta or enable upper-bound pruning",
			maxCandidates, row, cs.n1, cs.n1, cs.n2)
	}
	return nil
}

// keepsBounds reports whether the options retain the Eq. 6 bounds of
// pruned pairs (§3.4 with α > 0).
func (cs *CandidateSet) keepsBounds() bool {
	ub := cs.opts.UpperBoundOpt
	return ub != nil && ub.Alpha > 0
}

// buildChunkRows is the number of rows a build worker claims per grab from
// the row cursor (fewer on small graphs; see chunkSize).
const buildChunkRows = 64

// rowWorker is one build worker's output buffers, appended to across all
// the chunks of rows it claims. The trailing pad keeps adjacent workers'
// slice headers, written on every append, off each other's cache lines (as
// engineWorker does).
type rowWorker struct {
	cand        []pairbits.Key
	prunedCol   []graph.NodeID
	prunedBound []float64
	pruned      int // pruned pairs decided, retained or not
	masks       rowMasks
	_           [128]byte
}

// rowSegment is where one chunk's candidates and retained bounds sit in
// the buffers of the worker that decided it.
type rowSegment struct {
	w             *rowWorker
	cand, candEnd int
	kept, keptEnd int
}

// decide runs one pair through the candidate test and appends it to the
// worker's candidates, or to its pruned columns when §3.4 rejected it.
// Pairs of a row must arrive in ascending v order.
func (w *rowWorker) decide(cs *CandidateSet, u, v graph.NodeID, keepBounds bool) {
	ok, bound, pruned := cs.candidate(&w.masks, u, v)
	switch {
	case ok:
		w.cand = append(w.cand, pairbits.MakeKey(u, v))
	case pruned:
		w.pruned++
		if keepBounds {
			w.prunedCol = append(w.prunedCol, v)
			w.prunedBound = append(w.prunedBound, bound)
		}
	}
}

// rowOffsets turns per-row sizes into row offsets in place: given the size
// of row u at off[u+1] (and off[0] = 0), it leaves the start of row u at
// off[u] and the total at off[len(off)-1]. It returns the first row at
// which the running total exceeds limit — leaving that entry and the ones
// after it unconverted — or -1 when none does.
func rowOffsets(off []int32, limit int) int {
	var total int64
	for u := 0; u+1 < len(off); u++ {
		total += int64(off[u+1])
		if total > int64(limit) {
			return u
		}
		off[u+1] = int32(total)
	}
	return -1
}

// eligibleColumns lists, for every g1 label that labels a node, the g2
// nodes whose label it may pair with (L ≥ θ) in ascending id order — the
// rowOff contract's order for both candidate and pruned rows — so each row
// reads its label's list as is. A label's eligible g2 labels are the set
// bits of its row of the label table's bit matrix. The lists share one
// exactly sized array, filled by one ascending pass over the g2 nodes.
func (cs *CandidateSet) eligibleColumns() [][]graph.NodeID {
	nl1, nl2 := cs.g1.NumLabels(), cs.g2.NumLabels()
	used := make([]bool, nl1)
	for _, l := range cs.labels1 {
		used[l] = true
	}
	count2 := make([]int, nl2) // nodes per g2 label
	for _, l := range cs.labels2 {
		count2[l]++
	}
	partners := make([][]graph.Label, nl2) // per g2 label, the used g1 labels it pairs with
	size := make([]int, nl1)
	total := 0
	for l1 := 0; l1 < nl1; l1++ {
		if !used[l1] {
			continue
		}
		for w, word := range cs.table.Row(l1) {
			for ; word != 0; word &= word - 1 {
				l2 := w*64 + bits.TrailingZeros64(word)
				partners[l2] = append(partners[l2], graph.Label(l1))
				size[l1] += count2[l2]
			}
		}
		total += size[l1]
	}
	flat := make([]graph.NodeID, total)
	cols := make([][]graph.NodeID, nl1)
	at := 0
	for l1, n := range size {
		cols[l1] = flat[at : at : at+n]
		at += n
	}
	for v, l2 := range cs.labels2 {
		for _, l1 := range partners[l2] {
			cols[l1] = append(cols[l1], graph.NodeID(v))
		}
	}
	return cols
}

// candidate decides membership in Hc and (with ub on) returns the Eq. 6
// bound of rejected-but-eligible pairs, reading the bound's counts from
// row u's masks m.
func (cs *CandidateSet) candidate(m *rowMasks, u, v graph.NodeID) (ok bool, bound float64, pruned bool) {
	if !cs.Eligible(u, v) {
		return false, 0, false
	}
	if ub := cs.opts.UpperBoundOpt; ub != nil {
		b := cs.upperBound(m, u, v, cs.LabelSim(u, v))
		if b <= ub.Beta {
			return false, b, true
		}
	}
	return true, 0, false
}

// LabelSim returns the cached L(ℓ1(u), ℓ2(v)) of a label-eligible pair,
// and 0 for any other: the label table keeps no value below θ.
func (cs *CandidateSet) LabelSim(u, v graph.NodeID) float64 {
	return cs.table.Sim(int(cs.labels1[u]), int(cs.labels2[v]))
}

// Eligible implements the label constraint of Remark 2 for a node pair,
// L(ℓ1(x), ℓ2(y)) ≥ θ: one read of the label table's bit matrix.
func (cs *CandidateSet) Eligible(x, y graph.NodeID) bool {
	return cs.table.Eligible(int(cs.labels1[x]), int(cs.labels2[y]))
}

// Graphs returns the two input graphs.
func (cs *CandidateSet) Graphs() (*graph.Graph, *graph.Graph) { return cs.g1, cs.g2 }

// Options returns the normalized options the set was built with.
func (cs *CandidateSet) Options() Options { return cs.opts }

// NumCandidates is |Hc|, the number of maintained pairs.
func (cs *CandidateSet) NumCandidates() int {
	if cs.allPairs {
		return cs.n1 * cs.n2
	}
	return len(cs.candPairs)
}

// PrunedCount is the number of label-eligible pairs removed by upper-bound
// pruning.
func (cs *CandidateSet) PrunedCount() int { return cs.prunedCount }

// Contains reports whether the pair (u, v) is maintained in Hc.
func (cs *CandidateSet) Contains(u, v graph.NodeID) bool { return cs.Position(u, v) >= 0 }

// StandIn returns the constant score a non-candidate pair contributes to
// Equation 3 (§3.4): α·FSim̄ for a label-eligible non-candidate under
// α > 0 — every such pair is pruned — and 0 for any other pair, candidates
// included. The bound is the retained one when some candidate reads the
// pair, and is evaluated on the spot (as RowBounds does) otherwise.
func (cs *CandidateSet) StandIn(u, v graph.NodeID) float64 {
	if !cs.keepsBounds() || !cs.Eligible(u, v) || cs.Contains(u, v) {
		return 0
	}
	if i, ok := cs.prunedPos(u, v); ok {
		return cs.opts.UpperBoundOpt.Alpha * cs.prunedBound[i]
	}
	return cs.opts.UpperBoundOpt.Alpha * cs.RowBounds(u, []graph.NodeID{v}, nil)[0]
}

// prunedPos binary-searches row u of the retained-bound CSR for column v,
// returning its position in prunedCol/prunedBound.
func (cs *CandidateSet) prunedPos(u, v graph.NodeID) (int, bool) {
	if cs.prunedOff == nil {
		return 0, false
	}
	lo, hi := cs.prunedOff[u], cs.prunedOff[u+1]
	i, ok := slices.BinarySearch(cs.prunedCol[lo:hi], v)
	return int(lo) + i, ok
}

// initScore returns FSim⁰(u, v) for a candidate pair: Options.Init when
// set, else the label similarity, with the PinDiagonal override applied.
func (cs *CandidateSet) initScore(u, v graph.NodeID) float64 {
	if cs.opts.PinDiagonal && u == v {
		return 1
	}
	ls := cs.LabelSim(u, v)
	if cs.opts.Init != nil {
		return cs.opts.Init(cs.g1, cs.g2, u, v, ls)
	}
	return ls
}

// RowBounds evaluates the Eq. 6 upper bound FSim̄(u, v) ≥ FSimχ(u, v) of
// (u, v) for every v of vs, in vs's order, into dst (grown if it is too
// short), building row u's eligibility masks once for all of them. It is
// valid for every pair, candidate or not.
func (cs *CandidateSet) RowBounds(u graph.NodeID, vs []graph.NodeID, dst []float64) []float64 {
	m, _ := cs.boundMasks.Get().(*rowMasks)
	if m == nil {
		m = new(rowMasks)
	}
	m.reset() // the set may have been patched since m was pooled
	dst = slices.Grow(dst[:0], len(vs))
	for _, v := range vs {
		dst = append(dst, cs.upperBound(m, u, v, cs.LabelSim(u, v)))
	}
	cs.boundMasks.Put(m)
	return dst
}

// Position returns where candidate pair (u, v) sits in the candidate
// enumeration — u·|V2|+v when every pair is a candidate, else its index in
// the row-major candidate list, found by a binary search of row u — or -1
// when (u, v) is not a candidate. Scores that outlive an engine run
// (Result, the dynamic maintainer's store, snapshots) keep one float64 per
// candidate at these positions.
func (cs *CandidateSet) Position(u, v graph.NodeID) int {
	if cs.allPairs {
		return int(u)*cs.n2 + int(v)
	}
	lo, hi := cs.rowOff[u], cs.rowOff[u+1]
	i, ok := slices.BinarySearch(cs.candPairs[lo:hi], pairbits.MakeKey(u, v))
	if !ok {
		return -1
	}
	return int(lo) + i
}

// ScoreRow returns row u of a candidate-aligned score vector, read through
// score(pos) at each candidate Position, as (v, score) pairs in ascending
// v order.
func (cs *CandidateSet) ScoreRow(u graph.NodeID, score func(pos int) float64) []stats.Ranked {
	lo, hi := cs.RowSpan(u)
	out := make([]stats.Ranked, hi-lo)
	for pos := lo; pos < hi; pos++ {
		_, v := cs.PairAt(pos)
		out[pos-lo] = stats.Ranked{Index: int(v), Score: score(pos)}
	}
	return out
}

// PairAt returns the candidate pair at position pos.
func (cs *CandidateSet) PairAt(pos int) (u, v graph.NodeID) {
	if cs.allPairs {
		return graph.NodeID(pos / cs.n2), graph.NodeID(pos % cs.n2)
	}
	return cs.candPairs[pos].Split()
}

// ForEachCandidate calls fn for every candidate v of row u, in ascending v
// order.
func (cs *CandidateSet) ForEachCandidate(u graph.NodeID, fn func(v graph.NodeID)) {
	lo, hi := cs.RowSpan(u)
	for pos := lo; pos < hi; pos++ {
		_, v := cs.PairAt(pos)
		fn(v)
	}
}

// RowSpan returns the candidate positions of row u, lo ≤ pos < hi, in the
// order ForEachCandidate visits them.
func (cs *CandidateSet) RowSpan(u graph.NodeID) (lo, hi int) {
	if cs.allPairs {
		return int(u) * cs.n2, (int(u) + 1) * cs.n2
	}
	return int(cs.rowOff[u]), int(cs.rowOff[u+1])
}

// forEachRead enumerates the pairs whose previous-iteration scores the
// Equation 3 update of (u, v) reads: the out-neighbor cross product under
// w⁺ and the in-neighbor cross product under w⁻ (the forward direction of
// the dependency adjacency; ForEachCandidateDependent is its reverse).
// The engine reads them through joinRows instead.
func (cs *CandidateSet) forEachRead(u, v graph.NodeID, fn func(x, y graph.NodeID)) {
	if cs.opts.WPlus > 0 {
		for _, x := range cs.g1.Out(u) {
			for _, y := range cs.g2.Out(v) {
				fn(x, y)
			}
		}
	}
	if cs.opts.WMinus > 0 {
		for _, x := range cs.g1.In(u) {
			for _, y := range cs.g2.In(v) {
				fn(x, y)
			}
		}
	}
}
