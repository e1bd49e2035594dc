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
// recomputing each round only the worklist — every iterated pair in round
// one, afterwards the pairs whose inputs changed. The candidate map,
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

	// Worklist state, one bit per slot: the slots to recompute this
	// iteration, the slots reactivated by this iteration's dirty pairs,
	// and the dirty slots — those whose change exceeded the stability
	// threshold. Workers claim whole active words, and a worker writes
	// only the dirty words of the active words it claimed.
	active, nextActive, dirty pairbits.Bitset
}

// layout is a run's slot plan: pair → slot for worklist marks, slot →
// pair, and the ranks a previous-score read resolves through
// (lookupFunc). Every run, batch or localized, keeps one slot per
// candidate at its CandidateSet.Position: the row-major candidate list
// (the literal Hc of Algorithm 1), or u·|V2|+v when every pair is a
// candidate. The buffers of a batch run are therefore the result's scores
// as they stand. A localized run (Closure) iterates only the slots its
// member bitset marks; the closure property means no member reads another
// candidate, so the other slots are never read.
//
// A candidate resolves to its slot by the rank of its bit in the
// candidate bitmap (dense store) or through the index map (sparse store,
// pair universe beyond Options.DenseCapPairs). A non-candidate pair reads
// α·FSim̄ for a retained bound — found by the rank of the pruned-pair
// bitmap, or by readStandIn's row search on the sparse store; every pruned
// pair a candidate reads has one — and 0 otherwise, which makes a
// label-ineligible pair read 0; the mapping operators read only the
// label-eligible pairs once a row has built its eligibility masks, and
// every pair before (and always under MapProduct), relying on that 0.
type layout struct {
	slots int // score-buffer length and worklist bitset span
	count int // iterated pairs

	// all marks the all-pairs store: pair (u, v) at slot u·stride + v.
	// Otherwise slot i holds pairs[i], and index (sparse store) or cand,
	// the rank of the candidate bitmap over universe slots u·stride + v
	// (dense store), inverts it; pruned ranks the retained-bound pairs of
	// the dense universe (zero without retained bounds). member marks the
	// iterated slots, nil meaning every slot.
	all    bool
	stride int
	pairs  []pairbits.Key
	index  map[pairbits.Key]int32
	cand   pairbits.Rank
	pruned pairbits.Rank
	member pairbits.Bitset
}

// pair decodes a slot back into its node pair.
func (l *layout) pair(slot int) (graph.NodeID, graph.NodeID) {
	return l.pairFrom(slot, 0, slot, 0)
}

// pairFrom decodes slot base+off, given the row r and column c of slot
// base in the all-pairs store (r = 0, c = base always serves). A worklist
// word decodes its 64 slots from the word's first slot, so the division
// runs only where the word crosses a row boundary, not once per slot.
func (l *layout) pairFrom(base, r, c, off int) (graph.NodeID, graph.NodeID) {
	if !l.all {
		return l.pairs[base+off].Split()
	}
	if c += off; c >= l.stride {
		r += c / l.stride
		c %= l.stride
	}
	return graph.NodeID(r), graph.NodeID(c)
}

// position resolves pair (u, v) to its slot, reporting whether the pair
// is a candidate.
func (l *layout) position(u, v graph.NodeID) (int, bool) {
	switch {
	case l.all:
		return int(u)*l.stride + int(v), true
	case l.index != nil:
		i, ok := l.index[pairbits.MakeKey(u, v)]
		return int(i), ok
	}
	return l.cand.Index(int(u)*l.stride + int(v))
}

// mark puts pair (u, v) on worklist b when the layout iterates it;
// non-iterated pairs (ineligible, pruned, outside a closure) hold
// constants and are never recomputed.
func (l *layout) mark(b pairbits.Bitset, u, v graph.NodeID) {
	if i, ok := l.position(u, v); ok && (l.member == nil || l.member.Get(i)) {
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

// ranks holds the dense store's rank structures. They are rebuilt at the
// start of every run, since a Patch may have moved them; a Closure keeps
// one so its runs reuse the capacity.
type ranks struct {
	cand, pruned pairbits.Rank
	prunedBits   pairbits.Bitset
}

// layout returns the slot plan of the set's score store, iterating every
// candidate, with the dense store's ranks rebuilt into r.
func (cs *CandidateSet) layout(r *ranks) layout {
	n := cs.NumCandidates()
	l := layout{
		slots: n, count: n, all: cs.allPairs,
		stride: cs.n2, pairs: cs.candPairs, index: cs.index,
	}
	if cs.dense && !cs.allPairs {
		r.cand.Reset(cs.candBits)
		l.cand = r.cand
		if cs.prunedOff != nil {
			r.prunedBits = cs.fillPrunedBits(r.prunedBits)
			r.pruned.Reset(r.prunedBits)
			l.pruned = r.pruned
		}
	}
	return l
}

// fillPrunedBits marks, in b's capacity, the retained-bound pairs of the
// dense store's pair universe (slot u·|V2|+v). The CSR lists them
// row-major, v-ascending, so a marked slot's rank is its position in
// prunedCol/prunedBound.
func (cs *CandidateSet) fillPrunedBits(b pairbits.Bitset) pairbits.Bitset {
	b = resetBits(b, cs.n1*cs.n2)
	for u := 0; u < cs.n1; u++ {
		for _, v := range cs.prunedCol[cs.prunedOff[u]:cs.prunedOff[u+1]] {
			b.Set(u*cs.n2 + int(v))
		}
	}
	return b
}

// chunkWords is the number of active-bitset words (64 slots each) a
// worker claims per grab from the shared chunk cursor: 4096 slots, large
// enough that the atomic add amortizes to nothing and a chunk's CSR rows
// stay cache-resident, small enough that a skewed run of heavy candidate
// rows is split across workers instead of serializing on one (the failure
// mode of the old round-robin striding, where worker t owned every
// (t mod threads)-th pair forever).
const chunkWords = 64

// engineWorker is one worker goroutine's reusable state: operator scratch,
// running extrema and its count of dirty slots. The trailing pad keeps
// adjacent workers' hot write slots (work, maxAbs, maxRel — updated every
// pair) at least a cache line apart; the per-worker reduction slices this
// replaces (absPer/relPer []float64, work []int64) put neighbors 8 bytes
// apart and false-shared every line.
type engineWorker struct {
	updateState
	dirty int // slots this worker marked dirty this iteration
	_     [128]byte
}

// begin resets the per-iteration accumulators, keeping the allocated
// scratch.
func (w *engineWorker) begin() {
	w.work = 0
	w.maxAbs = 0
	w.maxRel = 0
	w.dirty = 0
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
// candidate component, on every candidate.
func computeOn(cs *CandidateSet, start time.Time) (*Result, error) {
	e := &engine{CandidateSet: cs, lay: cs.layout(new(ranks))}
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
	// prev holds the latest completed iteration after the final swap, at
	// candidate positions: it is the result as it stands.
	res.scores = e.prev
	res.Duration = time.Since(start)
	return res, nil
}

// Closure is a localized fixed point, the query subsystem's dependency
// closures: the candidate pairs that some seed pairs' Equation 3 updates
// read, transitively, iterated on the batch slot layout with a member
// bitset marking them. Pairs outside the closure can never influence a
// member, so the members' trajectory is the batch engine's. A Closure
// keeps its buffers, worklists, worker state and dense-store ranks
// between runs, so one Closure per goroutine runs repeated queries
// without reallocating them, across Patches too. It is not safe for
// concurrent use.
type Closure struct {
	e      engine
	res    Result
	ranks  ranks
	member pairbits.Bitset
	queue  []int // member slots in discovery order
}

// RunClosure collects the dependency closure of the seeds that are
// candidate pairs (the others are ignored) into c and iterates it to its
// fixed point, on one worker and on the same worklist as Compute: every
// member is active in round one, and afterwards a pair re-enters the
// worklist only when a pair its update reads changed (by more than
// Options.DeltaEps under DeltaMode). Members start from FSim⁰. A closure
// with no member is not run.
func (cs *CandidateSet) RunClosure(c *Closure, seeds []pairbits.Key) (iterations int, converged bool) {
	e := &c.e
	e.CandidateSet = cs
	e.lay = cs.layout(&c.ranks)
	l := &e.lay
	c.member = resetBits(c.member, l.slots)
	l.member = c.member
	c.queue = c.queue[:0]
	admit := func(u, v graph.NodeID) {
		if i, ok := l.position(u, v); ok && !c.member.Get(i) {
			c.member.Set(i)
			c.queue = append(c.queue, i)
		}
	}
	for _, k := range seeds {
		admit(k.Split())
	}
	for head := 0; head < len(c.queue); head++ {
		u, v := l.pair(c.queue[head])
		cs.forEachRead(u, v, admit)
	}
	if len(c.queue) == 0 {
		return 0, false
	}
	l.count = len(c.queue)
	e.prev = slices.Grow(e.prev[:0], l.slots)[:l.slots]
	e.cur = slices.Grow(e.cur[:0], l.slots)[:l.slots]
	for _, i := range c.queue {
		e.prev[i] = cs.initScore(l.pair(i))
	}
	res := &c.res
	*res = Result{Deltas: res.Deltas[:0], ActivePairs: res.ActivePairs[:0], Work: append(res.Work[:0], 0)}
	e.run(res)
	return res.Iterations, res.Converged
}

// Len is the number of pairs the last run iterated.
func (c *Closure) Len() int { return len(c.queue) }

// Pair returns the i-th pair of the last run's closure, 0 ≤ i < Len, in
// discovery order: the seeds that are candidates come first, in seed
// order and each once.
func (c *Closure) Pair(i int) (graph.NodeID, graph.NodeID) { return c.e.lay.pair(c.queue[i]) }

// Score returns the final score of the i-th pair of the last run's
// closure.
func (c *Closure) Score(i int) float64 { return c.e.prev[c.queue[i]] }

// run iterates to the fixed point over the engine's layout, recording the
// trajectory in res; len(res.Work) is the worker count. prev holds the
// seeded scores on entry and the latest completed iteration on return.
func (e *engine) run(res *Result) {
	opts := &e.opts
	e.initWorkers(len(res.Work))
	e.initWorklist()
	for it := 1; it <= opts.MaxIters; it++ {
		if opts.DeltaMode {
			res.ActivePairs = append(res.ActivePairs, e.active.Count())
		}
		maxAbs, maxRel := e.iterateDelta(res.Work)
		res.Iterations = it
		res.Deltas = append(res.Deltas, maxAbs)
		e.prev, e.cur = e.cur, e.prev
		if e.settled(maxAbs, maxRel) {
			res.Converged = true
			return
		}
		if it < opts.MaxIters {
			e.syncAndAdvance()
		}
	}
}

// settled reports whether an iteration's largest score changes meet the
// stopping rule (Options.Epsilon, absolute or relative).
func (e *engine) settled(maxAbs, maxRel float64) bool {
	if e.opts.RelativeEps {
		return maxRel < e.opts.Epsilon
	}
	return maxAbs < e.opts.Epsilon
}

// initWorkers (re)builds n padded per-worker states. Scratch survives from
// earlier runs of the same engine; the score accessor is rebuilt for the
// current layout, and the row masks are reset, since the candidate set may
// have been patched since the last run.
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
		w.masks.reset()
	}
}

// initScores fills prev with FSim⁰ for every candidate pair.
func (e *engine) initScores() {
	for i := range e.prev {
		e.prev[i] = e.initScore(e.lay.pair(i))
	}
}

// updateState is one worker's reusable per-iteration context: operator
// scratch, the row eligibility masks of the row it last recomputed, score
// accessor and running extrema. Every recomputation goes through
// updateSlot, so a slot's arithmetic is the same whichever iteration (or,
// in tests, which reference sweep) recomputes it.
type updateState struct {
	scratch *opScratch
	masks   rowMasks
	lookup  func(x, y graph.NodeID) float64
	work    int64
	maxAbs  float64
	maxRel  float64
}

// updateSlot recomputes pair (u, v) into cur[i] (Lines 5–8 of Algorithm 1)
// and returns the absolute score change.
func (e *engine) updateSlot(st *updateState, u, v graph.NodeID, i int) float64 {
	s := e.updatePair(&st.masks, u, v, st.lookup, st.scratch)
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

// initWorklist seeds the worklist. It establishes the two invariants the
// run maintains between iterations: both score buffers agree at every slot
// the next iteration skips (so skipped pairs keep their value through the
// swap), and the active set covers every pair whose Equation 3 inputs may
// still change — which at the start is every iterated pair. Worklist
// capacity from an earlier run is reused.
func (e *engine) initWorklist() {
	copy(e.cur, e.prev)
	e.active = resetBits(e.active, e.lay.slots)
	e.nextActive = resetBits(e.nextActive, e.lay.slots)
	e.dirty = resetBits(e.dirty, e.lay.slots)
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

// iterateDelta runs one synchronous update of the active worklist
// (Lines 4–9 of Algorithm 1). Workers claim contiguous runs of bitset
// words from a shared atomic cursor, so a run of heavy candidate rows is
// split across workers (see chunkWords). Each slot's update reads only
// prev and writes only its own cur entry, so scores are identical at any
// thread count and chunk schedule. A worker records the slots whose change
// exceeded the stability threshold (DeltaEps under DeltaMode, else 0) in
// the dirty words of the active words it claimed. Inactive pairs are
// untouched: by the worklist invariant their buffered scores already are
// what a recomputation would produce (bit for bit outside DeltaMode and at
// DeltaEps = 0), so scores and extrema match a sweep over every pair. It
// returns the maximum absolute and relative score changes.
func (e *engine) iterateDelta(work []int64) (maxAbs, maxRel float64) {
	eps := 0.0 // DeltaEps is a DeltaMode knob; runs outside it are exact
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
				word := e.active[i]
				if word == 0 {
					continue
				}
				base, r, c := i*64, 0, 0
				if l.all {
					r, c = base/l.stride, base%l.stride
				}
				var dirty uint64
				for ; word != 0; word &= word - 1 {
					b := bits.TrailingZeros64(word)
					u, v := l.pairFrom(base, r, c, b)
					if d := e.updateSlot(&w.updateState, u, v, base+b); d > eps {
						dirty |= 1 << uint(b)
					}
				}
				if dirty != 0 {
					e.dirty[i] = dirty
					w.dirty += bits.OnesCount64(dirty)
				}
			}
		}
	})
	return e.reduce(work)
}

// syncAndAdvance runs between iterations, after the buffer swap. It builds
// the next worklist by propagating the dirty set through the reverse
// candidate adjacency: a pair re-enters the worklist only when a pair its
// Equation 3 value reads has changed. Under damping a dirty pair also
// re-enters on its own — its next value mixes in its own previous score,
// so it keeps moving even when its neighbors are at rest. It then restores
// the buffer-agreement invariant where the next iteration needs it:
// cur[i] = prev[i] at every slot this iteration recomputed and the next
// one skips (the slots it recomputes are overwritten anyway).
func (e *engine) syncAndAdvance() {
	dirtyTotal := 0
	for t := range e.workers {
		dirtyTotal += e.workers[t].dirty
	}
	l := &e.lay
	next := e.nextActive
	if 4*dirtyTotal >= l.count {
		// Most of the map changed: enumerating reverse adjacency would
		// cost as much as the updates it schedules, and its union is
		// (nearly) everything anyway. Reactivating all iterated pairs is
		// a superset of the precise frontier, so exactness is unaffected;
		// precise propagation resumes once the dirty set thins out.
		l.markAll(next)
		e.dirty.ClearAll()
	} else {
		mark := func(u, v graph.NodeID) { l.mark(next, u, v) }
		damping := e.opts.Damping
		for i, word := range e.dirty {
			if word == 0 {
				continue
			}
			e.dirty[i] = 0
			if damping > 0 {
				next[i] |= word
			}
			for ; word != 0; word &= word - 1 {
				x, y := l.pair(i*64 + bits.TrailingZeros64(word))
				forEachDependent(e.g1, e.g2, x, y, e.opts.WPlus, e.opts.WMinus, mark)
			}
		}
	}
	for i, word := range e.active {
		for word &^= next[i]; word != 0; word &= word - 1 {
			slot := i*64 + bits.TrailingZeros64(word)
			e.cur[slot] = e.prev[slot]
		}
	}
	e.active, e.nextActive = next, e.active
	e.nextActive.ClearAll()
}

// lookupFunc returns the previous-iteration score accessor used by the
// mapping operators, built once per run for the engine's layout. The
// accessor alone decides what a non-candidate contributes: its §3.4
// stand-in, α·FSim̄ for a retained bound, and 0 otherwise, which for a
// label-ineligible pair is what excluding it from the mapping would
// contribute (see neighborScore). All pairs is a single array load; the
// other stores resolve a pair to its slot (position). No resolver checks
// the label constraint: a pair that fails it is neither a candidate nor
// pruned, and resolves to 0. The operators read such pairs only under
// MapProduct and in rows that have not built their masks.
func (e *engine) lookupFunc() func(x, y graph.NodeID) float64 {
	l := &e.lay
	switch {
	case l.all:
		n2 := l.stride
		return func(x, y graph.NodeID) float64 { return e.prev[int(x)*n2+int(y)] }
	case l.index != nil:
		return func(x, y graph.NodeID) float64 {
			if i, ok := l.index[pairbits.MakeKey(x, y)]; ok {
				return e.prev[i]
			}
			return e.readStandIn(x, y)
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
