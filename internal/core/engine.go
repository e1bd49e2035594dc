package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// engine is the one fixed-point executor (Algorithm 1, Lines 3–10): it
// iterates Equation 3 over a slot layout with two score buffers (Hc / Hp),
// either sweeping every iterated pair each round or, with the worklist
// strategy, only the pairs whose inputs changed. The candidate map,
// label-similarity cache and §3.4 bounds come from the embedded
// CandidateSet; the layout decides which pairs the run iterates and where
// their scores live (see layout).
type engine struct {
	*CandidateSet
	lay layout

	prev, cur []float64

	// workers holds one reusable, cache-line-padded state per worker
	// goroutine.
	workers []engineWorker

	// Worklist state (nil unless worklist): slots to recompute this
	// iteration, and slots reactivated by this iteration's dirty pairs.
	worklist           bool
	active, nextActive pairbits.Bitset
}

// layout is a run's slot plan: the slot count, slot → pair, pair → slot
// for worklist marks, and how a previous-score read resolves (lookupFunc).
// Every plan reads a non-candidate pair as its §3.4 stand-in and a
// label-ineligible pair as 0, so the mapping operators need no label
// check of their own. Two plans exist:
//
//   - list (batch, any store with a candidate map): one slot per
//     candidate, aligned to the row-major candidate list (the literal Hc
//     of Algorithm 1), so the buffers are the result's scores as they
//     stand. A pair resolves to its slot by the rank of its bit in the
//     candidate bitmap (dense store) or through the index map (sparse
//     store, pair universe beyond Options.DenseCapPairs, which checks the
//     label constraint first). A non-candidate pair reads α·FSim̄ for a
//     retained bound — found by the rank of the pruned-pair bitmap, or by
//     StandIn's row search on the sparse store — and 0 otherwise.
//   - row-dense: pair (u, v) at slot row(u)·stride + v. Batch all-pairs
//     runs (θ = 0, pruning off) cover every g1 node, every slot a
//     candidate; RowPlan (the query subsystem's dependency closures)
//     covers only the g1 nodes a closure touches, with its non-candidate
//     slots holding their constant stand-ins and reads of other rows
//     resolving to theirs.
type layout struct {
	slots int // score-buffer length and worklist bitset span
	count int // iterated pairs

	// A row-dense layout (list false) keeps pair (u, v) at slot
	// row(u)·stride + v, with rows rows. rowOf maps a g1 node to its row
	// (-1: no row) and rowNode inverts it; both nil mean row u is node u.
	list    bool
	rows    int
	stride  int
	rowOf   []int32
	rowNode []graph.NodeID

	// pairs lists the iterated pairs in sweep order. In a list layout slot
	// i holds pairs[i]; index (sparse store) or cand, the rank of the
	// candidate bitmap over universe slots u·stride + v (dense store),
	// inverts it, and pruned ranks the retained-bound pairs of the dense
	// universe (zero without retained bounds). A row-dense layout marks
	// the iterated slots in member, and nil member means every slot, swept
	// row by row.
	pairs  []pairbits.Key
	index  map[pairbits.Key]int32
	cand   pairbits.Rank
	pruned pairbits.Rank
	member pairbits.Bitset
}

// row returns the buffer row of g1 node u in a row-dense layout.
func (l *layout) row(u graph.NodeID) int {
	if l.rowOf == nil {
		return int(u)
	}
	return int(l.rowOf[u])
}

// sweepSlot returns the slot of pairs[pos] = (u, v).
func (l *layout) sweepSlot(pos int, u, v graph.NodeID) int {
	if l.list {
		return pos
	}
	return l.row(u)*l.stride + int(v)
}

// pair decodes a slot back into its node pair.
func (l *layout) pair(slot int) (graph.NodeID, graph.NodeID) {
	if l.list {
		return l.pairs[slot].Split()
	}
	r := slot / l.stride
	u := graph.NodeID(r)
	if l.rowNode != nil {
		u = l.rowNode[r]
	}
	return u, graph.NodeID(slot % l.stride)
}

// position resolves pair (u, v) to its slot in a list layout, reporting
// whether the pair is a candidate.
func (l *layout) position(u, v graph.NodeID) (int, bool) {
	if l.index != nil {
		i, ok := l.index[pairbits.MakeKey(u, v)]
		return int(i), ok
	}
	return l.cand.Index(int(u)*l.stride + int(v))
}

// mark puts pair (u, v) on worklist b when the layout iterates it;
// non-iterated pairs (ineligible, pruned, outside a closure) hold
// constants and are never recomputed.
func (l *layout) mark(b pairbits.Bitset, u, v graph.NodeID) {
	if l.list {
		if pos, ok := l.position(u, v); ok {
			b.Set(pos)
		}
		return
	}
	r := l.row(u)
	if r < 0 {
		return
	}
	if i := r*l.stride + int(v); l.member == nil || l.member.Get(i) {
		b.Set(i)
	}
}

// markAll sets every iterated slot of b.
func (l *layout) markAll(b pairbits.Bitset) {
	if l.member != nil {
		copy(b, l.member)
		return
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := l.slots % 64; rem != 0 {
		b[len(b)-1] = uint64(1)<<uint(rem) - 1
	}
}

// layout returns the batch slot plan of the set's score store. The dense
// store's ranks are built here, once per run, and only read afterwards.
func (cs *CandidateSet) layout() layout {
	if cs.allPairs {
		return layout{slots: cs.n1 * cs.n2, count: cs.n1 * cs.n2, rows: cs.n1, stride: cs.n2}
	}
	l := layout{
		slots: len(cs.candPairs), count: len(cs.candPairs),
		list: true, stride: cs.n2, pairs: cs.candPairs, index: cs.index,
	}
	if cs.dense {
		l.cand = pairbits.NewRank(cs.candBits)
		if cs.prunedOff != nil {
			l.pruned = pairbits.NewRank(cs.prunedBits())
		}
	}
	return l
}

// prunedBits marks the retained-bound pairs of the dense store's pair
// universe (slot u·|V2|+v). The CSR lists them row-major, v-ascending, so
// a marked slot's rank is its position in prunedCol/prunedBound.
func (cs *CandidateSet) prunedBits() pairbits.Bitset {
	b := pairbits.NewBitset(cs.n1 * cs.n2)
	for u := 0; u < cs.n1; u++ {
		for _, v := range cs.prunedCol[cs.prunedOff[u]:cs.prunedOff[u+1]] {
			b.Set(u*cs.n2 + int(v))
		}
	}
	return b
}

// chunkSlots is the target number of score slots a worker claims per grab
// from the shared chunk cursor: large enough that the atomic add amortizes
// to nothing and a chunk's CSR rows stay cache-resident, small enough that
// a skewed run of heavy candidate rows is split across workers instead of
// serializing on one (the failure mode of the old round-robin striding,
// where worker t owned every (t mod threads)-th pair forever).
const chunkSlots = 4096

// chunkWords is the delta strategy's grab size in active-bitset words
// (64 slots per word).
const chunkWords = chunkSlots / 64

// engineWorker is one worker goroutine's reusable state: operator scratch,
// dirty-slot accumulator and running extrema. The trailing pad keeps
// adjacent workers' hot write slots (work, maxAbs, maxRel — updated every
// pair) at least a cache line apart; the per-worker reduction slices this
// replaces (absPer/relPer []float64, work []int64) put neighbors 8 bytes
// apart and false-shared every line.
type engineWorker struct {
	updateState
	dirty []int // slots whose change exceeded DeltaEps this iteration
	_     [128]byte
}

// begin resets the per-iteration accumulators, keeping the allocated
// scratch and dirty capacity.
func (w *engineWorker) begin() {
	w.work = 0
	w.maxAbs = 0
	w.maxRel = 0
	w.dirty = w.dirty[:0]
}

// chunkSize picks the contiguous grab size for a workload of total units:
// the cache-blocked target, shrunk so every worker can claim several
// chunks on small workloads (a single grab spanning the whole queue would
// serialize it), floored at one unit.
func chunkSize(total, threads, target int) int {
	c := target
	if byShare := total / (threads * 4); byShare < c {
		c = byShare
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Compute runs the FSimχ framework on (g1, g2) and returns the fractional
// χ-simulation scores of all maintained node pairs. g1 and g2 may be the
// same graph (self-similarity, as in the paper's single-graph experiments).
func Compute(g1, g2 *graph.Graph, opts Options) (*Result, error) {
	start := time.Now()
	cs, err := NewCandidateSet(g1, g2, opts)
	if err != nil {
		return nil, err
	}
	return computeOn(cs, start)
}

// ComputeOn iterates Equation 3 to its fixed point over a prebuilt
// candidate component, exactly like Compute but without re-enumerating the
// candidate map. Callers that keep a long-lived CandidateSet (the query
// index, the dynamic maintainer) use it to share one component between
// batch computations, queries and in-place patches.
func ComputeOn(cs *CandidateSet) (*Result, error) {
	return computeOn(cs, time.Now())
}

// computeOn iterates Equation 3 to its fixed point over a prebuilt
// candidate component, on the batch layout of its store.
func computeOn(cs *CandidateSet, start time.Time) (*Result, error) {
	e := &engine{CandidateSet: cs, lay: cs.layout(), worklist: cs.opts.DeltaMode}
	e.prev = make([]float64, e.lay.slots)
	e.cur = make([]float64, e.lay.slots)
	e.initScores()
	res := &Result{
		cs:             cs,
		PrunedCount:    cs.prunedCount,
		CandidateCount: cs.NumCandidates(),
		Work:           make([]int64, cs.opts.Threads),
	}
	e.run(res)
	// prev holds the latest completed iteration after the final swap; both
	// batch layouts are candidate-aligned, so it is the result as it stands.
	res.scores = e.prev
	res.Duration = time.Since(start)
	return res, nil
}

// RowPlan is the slot plan of a localized fixed point — the query
// subsystem's dependency closures: row-dense score buffers of stride |V2|
// over only the g1 nodes a closure touches. The caller fills the exported
// fields; the plan keeps the executor's worker state, worklists and
// trajectory between runs, so one plan per goroutine runs repeated queries
// without reallocating them. A plan is not safe for concurrent use.
type RowPlan struct {
	// Rows maps a buffer row to its g1 node; RowOf (length |V1|) inverts
	// it, with -1 for g1 nodes that have no row.
	Rows  []graph.NodeID
	RowOf []int32
	// Member marks the closure's pairs (slot row·|V2| + v), the slots the
	// run iterates. The closure must contain every candidate pair a
	// member's Equation 3 update reads, so that the localized trajectory
	// equals Compute's.
	Member pairbits.Bitset
	// Prev holds the seeded scores, len(Rows)·|V2| of them: FSim⁰ at
	// member slots, and at every other slot of a row its constant §3.4
	// stand-in (0 without one). Cur is the second buffer; ComputeRows sizes
	// and overwrites it.
	Prev, Cur []float64

	e   engine
	res Result
}

// ComputeRows iterates Equation 3 to its fixed point over a row plan, on
// one worker with the worklist strategy: every member is active in round
// one, and afterwards a pair re-enters the worklist only when a pair its
// update reads changed by more than Options.DeltaEps — applied only under
// DeltaMode, as Compute does. Reads of g1 nodes without a row resolve to
// their stand-ins. On return Prev holds the final scores (the two buffers
// may have swapped).
func (cs *CandidateSet) ComputeRows(p *RowPlan) (iterations int, converged bool) {
	p.Cur = slices.Grow(p.Cur[:0], len(p.Prev))[:len(p.Prev)]
	e := &p.e
	e.CandidateSet = cs
	e.lay = layout{
		slots: len(p.Prev), count: p.Member.Count(),
		rows: len(p.Rows), stride: cs.n2, rowOf: p.RowOf, rowNode: p.Rows, member: p.Member,
	}
	e.prev, e.cur = p.Prev, p.Cur
	e.worklist = true
	res := &p.res
	*res = Result{Deltas: res.Deltas[:0], ActivePairs: res.ActivePairs[:0], Work: append(res.Work[:0], 0)}
	e.run(res)
	p.Prev, p.Cur = e.prev, e.cur
	return res.Iterations, res.Converged
}

// run iterates to the fixed point over the engine's layout, recording the
// trajectory in res; len(res.Work) is the worker count. prev holds the
// seeded scores on entry and the latest completed iteration on return.
func (e *engine) run(res *Result) {
	opts := &e.opts
	e.initWorkers(len(res.Work))
	if e.worklist {
		e.initWorklist()
	}
	for it := 1; it <= opts.MaxIters; it++ {
		var maxAbs, maxRel float64
		if e.worklist {
			if opts.DeltaMode {
				res.ActivePairs = append(res.ActivePairs, e.active.Count())
			}
			maxAbs, maxRel = e.iterateDelta(res.Work)
		} else {
			maxAbs, maxRel = e.iterate(res.Work)
		}
		res.Iterations = it
		res.Deltas = append(res.Deltas, maxAbs)
		e.prev, e.cur = e.cur, e.prev
		var done bool
		if opts.RelativeEps {
			done = maxRel < opts.Epsilon
		} else {
			done = maxAbs < opts.Epsilon
		}
		if done {
			res.Converged = true
			return
		}
		if e.worklist {
			e.syncAndAdvance()
		}
	}
}

// initWorkers (re)builds n padded per-worker states. Scratch and dirty
// capacity survive from earlier runs of the same engine; the score
// accessor is rebuilt for the current layout.
func (e *engine) initWorkers(n int) {
	if len(e.workers) != n {
		e.workers = make([]engineWorker, n)
	}
	for t := range e.workers {
		w := &e.workers[t]
		if w.scratch == nil {
			w.scratch = newOpScratch()
		}
		w.lookup = e.lookupFunc()
	}
}

// initScores fills prev with FSim⁰ for every batch candidate pair.
func (e *engine) initScores() {
	if e.allPairs { // dense, all pairs
		for u := 0; u < e.n1; u++ {
			for v := 0; v < e.n2; v++ {
				e.prev[u*e.n2+v] = e.InitScore(graph.NodeID(u), graph.NodeID(v))
			}
		}
		return
	}
	for pos, k := range e.candPairs {
		u, v := k.Split()
		e.prev[e.lay.sweepSlot(pos, u, v)] = e.InitScore(u, v)
	}
}

// updateState is one worker's reusable per-iteration context: operator
// scratch, score accessor and running extrema. Both iteration strategies
// (full and delta) update pairs through updateSlot so their per-pair
// arithmetic is identical by construction.
type updateState struct {
	scratch *opScratch
	lookup  func(x, y graph.NodeID) float64
	work    int64
	maxAbs  float64
	maxRel  float64
}

// updateSlot recomputes pair (u, v) into cur[i] (Lines 5–8 of Algorithm 1)
// and returns the absolute score change.
func (e *engine) updateSlot(st *updateState, u, v graph.NodeID, i int) float64 {
	s := e.updatePair(u, v, st.lookup, st.scratch)
	st.work += int64(e.g1.OutDegree(u))*int64(e.g2.OutDegree(v)) +
		int64(e.g1.InDegree(u))*int64(e.g2.InDegree(v)) + 1
	p := e.prev[i]
	if damping := e.opts.Damping; damping > 0 {
		s = damping*p + (1-damping)*s
	}
	e.cur[i] = s
	d := s - p
	if d < 0 {
		d = -d
	}
	if d > st.maxAbs {
		st.maxAbs = d
	}
	if p > 0 {
		if r := d / p; r > st.maxRel {
			st.maxRel = r
		}
	} else if d > 0 {
		st.maxRel = 1 // score appeared from zero: not converged
	}
	return d
}

// iterate runs one synchronous update of every iterated pair (Lines 4–9 of
// Algorithm 1). Workers claim contiguous cache-blocked chunks from a shared
// atomic cursor: consecutive slots share CSR rows and score-buffer cache
// lines, and a worker that lands on a run of heavy candidate rows simply
// claims fewer chunks while its peers drain the rest — work stays balanced
// under degree skew without any static assignment. Scores are identical at
// any thread count and chunk schedule: each slot's update reads only prev
// and writes only its own cur entry, so the result is order-independent by
// construction. It returns the maximum absolute and relative score changes.
func (e *engine) iterate(work []int64) (maxAbs, maxRel float64) {
	var cursor atomic.Int64
	l := &e.lay
	if !l.list && l.member == nil { // every slot (batch all-pairs): chunk contiguous rows
		target := 1
		if l.stride > 0 {
			if target = chunkSlots / l.stride; target < 1 {
				target = 1
			}
		}
		rows := chunkSize(l.rows, len(e.workers), target)
		e.runWorkers(func(w *engineWorker) {
			for {
				end := int(cursor.Add(int64(rows)))
				beg := end - rows
				if beg >= l.rows {
					return
				}
				if end > l.rows {
					end = l.rows
				}
				for u := beg; u < end; u++ {
					base := u * l.stride
					for v := 0; v < l.stride; v++ {
						e.updateSlot(&w.updateState, graph.NodeID(u), graph.NodeID(v), base+v)
					}
				}
			}
		})
	} else { // chunk contiguous positions of the pair list
		total := len(l.pairs)
		chunk := chunkSize(total, len(e.workers), chunkSlots)
		e.runWorkers(func(w *engineWorker) {
			for {
				end := int(cursor.Add(int64(chunk)))
				beg := end - chunk
				if beg >= total {
					return
				}
				if end > total {
					end = total
				}
				for pos := beg; pos < end; pos++ {
					u, v := l.pairs[pos].Split()
					e.updateSlot(&w.updateState, u, v, l.sweepSlot(pos, u, v))
				}
			}
		})
	}
	return e.reduce(work)
}

// runWorkers resets every worker state, fans body out over the worker
// goroutines and waits for the barrier. A single worker runs inline.
func (e *engine) runWorkers(body func(w *engineWorker)) {
	if len(e.workers) == 1 {
		w := &e.workers[0]
		w.begin()
		body(w)
		return
	}
	var wg sync.WaitGroup
	for t := range e.workers {
		w := &e.workers[t]
		w.begin()
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	wg.Wait()
}

// reduce folds the per-worker extrema and work counters after the barrier.
func (e *engine) reduce(work []int64) (maxAbs, maxRel float64) {
	for t := range e.workers {
		w := &e.workers[t]
		if w.maxAbs > maxAbs {
			maxAbs = w.maxAbs
		}
		if w.maxRel > maxRel {
			maxRel = w.maxRel
		}
		work[t] += w.work
	}
	return maxAbs, maxRel
}

// initWorklist seeds the worklist strategy. It establishes the two
// invariants the strategy maintains between iterations: both score buffers
// agree at every slot (so skipped pairs keep their value through the
// swap), and the active set covers every pair whose Equation 3 inputs may
// still change — which at the start is every iterated pair, exactly like
// iteration 1 of the full strategy. Worklist capacity from an earlier run
// is reused.
func (e *engine) initWorklist() {
	copy(e.cur, e.prev)
	e.active = resetBits(e.active, e.lay.slots)
	e.nextActive = resetBits(e.nextActive, e.lay.slots)
	e.lay.markAll(e.active)
}

// resetBits returns an all-clear bitset spanning n bits, reusing b's
// capacity when it suffices.
func resetBits(b pairbits.Bitset, n int) pairbits.Bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return pairbits.NewBitset(n)
	}
	b = b[:words]
	b.ClearAll()
	return b
}

// iterateDelta runs one synchronous update of the active worklist only.
// Workers claim contiguous runs of bitset words from a shared atomic
// cursor — the same dynamic cache-blocked handout as the full strategy, so
// a dense cluster of active slots (the usual shape after an update touches
// one region) is split across workers instead of landing on whichever
// worker the round-robin stride assigned that region to. Each worker
// records the slots whose change exceeded DeltaEps into its own dirty set;
// syncAndAdvance merges them after the barrier. Inactive pairs are
// untouched: their buffered scores are, by the worklist invariant, already
// the value a recomputation would produce (bit-identical when
// DeltaEps = 0), so both the scores and the returned extrema match the
// full strategy.
func (e *engine) iterateDelta(work []int64) (maxAbs, maxRel float64) {
	eps := 0.0 // DeltaEps is a DeltaMode knob; worklist runs outside it are exact
	if e.opts.DeltaMode {
		eps = e.opts.DeltaEps
	}
	l := &e.lay
	words := len(e.active)
	chunk := chunkSize(words, len(e.workers), chunkWords)
	var cursor atomic.Int64
	e.runWorkers(func(w *engineWorker) {
		for {
			end := int(cursor.Add(int64(chunk)))
			beg := end - chunk
			if beg >= words {
				return
			}
			if end > words {
				end = words
			}
			for i := beg; i < end; i++ {
				for word := e.active[i]; word != 0; word &= word - 1 {
					slot := i*64 + bits.TrailingZeros64(word)
					u, v := l.pair(slot)
					if d := e.updateSlot(&w.updateState, u, v, slot); d > eps {
						w.dirty = append(w.dirty, slot)
					}
				}
			}
		}
	})
	return e.reduce(work)
}

// syncAndAdvance runs between delta iterations, after the buffer swap. It
// restores the buffer-agreement invariant (cur[i] = prev[i] at every slot
// the iteration recomputed) and builds the next worklist by propagating the
// merged per-worker dirty sets through the reverse candidate adjacency: a
// pair re-enters the worklist only when a pair its Equation 3 value reads
// has changed. Under damping a dirty pair also re-enters on its own — its
// next value mixes in its own previous score, so it keeps moving even when
// its neighbors are at rest.
func (e *engine) syncAndAdvance() {
	for w, word := range e.active {
		for ; word != 0; word &= word - 1 {
			slot := w*64 + bits.TrailingZeros64(word)
			e.cur[slot] = e.prev[slot]
		}
	}
	dirtyTotal := 0
	for t := range e.workers {
		dirtyTotal += len(e.workers[t].dirty)
	}
	l := &e.lay
	if 4*dirtyTotal >= l.count {
		// Most of the map changed: enumerating reverse adjacency would
		// cost as much as the updates it schedules, and its union is
		// (nearly) everything anyway. Reactivating all iterated pairs is
		// a superset of the precise frontier, so exactness is unaffected;
		// precise propagation resumes once the dirty set thins out.
		l.markAll(e.nextActive)
	} else {
		next := e.nextActive
		mark := func(u, v graph.NodeID) { l.mark(next, u, v) }
		damping := e.opts.Damping
		for t := range e.workers {
			for _, slot := range e.workers[t].dirty {
				x, y := l.pair(slot)
				forEachDependent(e.g1, e.g2, x, y, e.opts.WPlus, e.opts.WMinus, mark)
				if damping > 0 {
					next.Set(slot)
				}
			}
		}
	}
	e.active, e.nextActive = e.nextActive, e.active
	e.nextActive.ClearAll()
}

// lookupFunc returns the previous-iteration score accessor used by the
// mapping operators, built once per run for the engine's layout. The
// accessor alone decides what a non-candidate contributes: its §3.4
// stand-in, α·FSim̄ for a retained bound, and 0 otherwise, which for a
// label-ineligible pair is what excluding it from the mapping would
// contribute (see neighborScore). All pairs is a single array load; a row
// plan adds one row-map load and resolves rows it never materialized to
// their stand-ins. The list layout resolves a pair to its slot (position).
// On the sparse store under θ > 0 the label check runs before the index
// probe: it costs less than the map miss it saves.
func (e *engine) lookupFunc() func(x, y graph.NodeID) float64 {
	l := &e.lay
	if !l.list {
		n2 := l.stride
		if rowOf := l.rowOf; rowOf != nil {
			return func(x, y graph.NodeID) float64 {
				if r := rowOf[x]; r >= 0 {
					return e.prev[int(r)*n2+int(y)]
				}
				return e.StandIn(x, y)
			}
		}
		return func(x, y graph.NodeID) float64 { return e.prev[int(x)*n2+int(y)] }
	}
	if l.index != nil {
		constrained := e.opts.Theta > 0
		return func(x, y graph.NodeID) float64 {
			if constrained && !e.eligible(x, y) {
				return 0
			}
			if i, ok := l.index[pairbits.MakeKey(x, y)]; ok {
				return e.prev[i]
			}
			return e.StandIn(x, y)
		}
	}
	n2, cand := l.stride, l.cand
	return func(x, y graph.NodeID) float64 {
		i := int(x)*n2 + int(y)
		if pos, ok := cand.Index(i); ok {
			return e.prev[pos]
		}
		return e.rankedStandIn(i)
	}
}

// rankedStandIn returns the stand-in of non-candidate slot i of the dense
// store's pair universe: α·FSim̄ for a retained bound, 0 otherwise.
func (e *engine) rankedStandIn(i int) float64 {
	if e.prunedOff == nil {
		return 0
	}
	j, ok := e.lay.pruned.Index(i)
	if !ok {
		return 0
	}
	return e.opts.UpperBoundOpt.Alpha * e.prunedBound[j]
}
