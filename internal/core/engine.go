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

// layout is a run's slot plan: slot → pair, and the slots the run
// iterates. Every run, batch or localized, keeps one slot per candidate
// at its CandidateSet.Position: the row-major candidate list (the literal
// Hc of Algorithm 1), or u·|V2|+v when every pair is a candidate. The
// buffers of a batch run are therefore the result's scores as they stand,
// and every read of a previous score — an Equation 3 update's, a worklist
// mark's, a closure's admission — resolves a pair to its slot by joining
// rows (joinRows). A localized run (Closure) iterates only the slots its
// member bitset marks; the closure property means no member reads another
// candidate, so the other slots are never read.
type layout struct {
	slots int // score-buffer length and worklist bitset span
	count int // iterated pairs

	// all marks the all-pairs store: pair (u, v) at slot u·stride + v.
	// Otherwise slot i holds pairs[i]. member marks the iterated slots,
	// nil meaning every slot.
	all    bool
	stride int
	pairs  []pairbits.Key
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

// layout returns the slot plan of the set's score store, iterating every
// candidate.
func (cs *CandidateSet) layout() layout {
	n := cs.NumCandidates()
	return layout{slots: n, count: n, all: cs.allPairs, stride: cs.n2, pairs: cs.candPairs}
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
	e := &engine{CandidateSet: cs, lay: cs.layout()}
	e.initWorkers(cs.opts.Threads)
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
// keeps its buffers, worklists and worker state between runs, so one
// Closure per goroutine runs repeated queries without reallocating them,
// across Patches too. It is not safe for concurrent use.
type Closure struct {
	e      engine
	res    Result
	member pairbits.Bitset
	queue  []int // member slots in discovery order
}

// RunClosure collects the dependency closure of the seeds, given by
// candidate position, into c and iterates it to its fixed point, on one
// worker and on the same worklist as Compute: every member is active in
// round one, and afterwards a pair re-enters the worklist only when a pair
// its update reads changed (by more than Options.DeltaEps under
// DeltaMode). Members start from FSim⁰. A closure with no member is not
// run.
func (cs *CandidateSet) RunClosure(c *Closure, seeds []int) (iterations int, converged bool) {
	e := &c.e
	e.CandidateSet = cs
	e.lay = cs.layout()
	l := &e.lay
	c.member = pairbits.Reset(c.member, l.slots)
	l.member = c.member
	c.queue = c.queue[:0]
	e.initWorkers(1)
	js := &e.workers[0].scratch.join
	admit := func(_, _, pos int) {
		if !c.member.Get(pos) {
			c.member.Set(pos)
			c.queue = append(c.queue, pos)
		}
	}
	for _, pos := range seeds {
		admit(0, 0, pos)
	}
	for head := 0; head < len(c.queue); head++ {
		u, v := l.pair(c.queue[head])
		if cs.opts.WPlus > 0 {
			cs.joinRows(js, cs.g1.Out(u), cs.g2.Out(v), admit, nil)
		}
		if cs.opts.WMinus > 0 {
			cs.joinRows(js, cs.g1.In(u), cs.g2.In(v), admit, nil)
		}
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

// Position returns the candidate position of the i-th pair of the last
// run's closure, 0 ≤ i < Len, in discovery order: the seeds come first, in
// seed order and each once.
func (c *Closure) Position(i int) int { return c.queue[i] }

// Score returns the final score of the i-th pair of the last closure.
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
// earlier runs of the same engine.
func (e *engine) initWorkers(n int) {
	if len(e.workers) != n {
		e.workers = make([]engineWorker, n)
	}
	for t := range e.workers {
		if w := &e.workers[t]; w.scratch == nil {
			w.scratch = newOpScratch()
		}
	}
}

// initScores fills prev with FSim⁰ for every candidate pair.
func (e *engine) initScores() {
	for i := range e.prev {
		e.prev[i] = e.initScore(e.lay.pair(i))
	}
}

// updateState is one worker's reusable per-iteration context: operator
// scratch and running extrema. Every recomputation goes through
// updateSlot, so a slot's arithmetic is the same whichever iteration (or,
// in tests, which reference sweep) recomputes it.
type updateState struct {
	scratch *opScratch
	work    int64
	maxAbs  float64
	maxRel  float64
}

// updateSlot recomputes pair (u, v) into cur[i] (Lines 5–8 of Algorithm 1)
// and returns the absolute score change.
func (e *engine) updateSlot(st *updateState, u, v graph.NodeID, i int) float64 {
	s := e.updatePair(u, v, st.scratch)
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

// updatePair evaluates Equation 3 for the pair (u, v) from the
// previous-iteration scores.
func (e *engine) updatePair(u, v graph.NodeID, scratch *opScratch) float64 {
	o := &e.opts
	if o.PinDiagonal && u == v {
		return 1
	}
	s := (1 - o.WPlus - o.WMinus) * e.LabelSim(u, v)
	if o.WPlus > 0 {
		s += o.WPlus * e.directionScore(e.g1.Out(u), e.g2.Out(v), scratch)
	}
	if o.WMinus > 0 {
		s += o.WMinus * e.directionScore(e.g1.In(u), e.g2.In(v), scratch)
	}
	return s
}

// directionScore evaluates Equation 2 between the neighbour lists s1 of u
// and s2 of v. It lists the weights of s1 × s2 from the join of the rows
// of s1 with s2 (joinRows): a candidate weighs its previous score, a
// retained bound its stand-in α·FSim̄, and every pair the join does not
// yield 0, which for a label-ineligible pair is what excluding it from the
// mapping contributes (see Operators.neighborScore).
func (e *engine) directionScore(s1, s2 []graph.NodeID, scratch *opScratch) float64 {
	w := scratch.w[:0]
	cand := func(i, j, pos int) { w = append(w, weight{int32(i), int32(j), e.prev[pos]}) }
	var bound func(i, j, b int)
	if e.prunedOff != nil {
		alpha := e.opts.UpperBoundOpt.Alpha
		bound = func(i, j, b int) { w = append(w, weight{int32(i), int32(j), alpha * e.prunedBound[b]}) }
	}
	e.joinRows(&scratch.join, s1, s2, cand, bound)
	scratch.w = w
	return e.ops.neighborScore(len(s1), len(s2), w, scratch)
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
	e.active = pairbits.Reset(e.active, e.lay.slots)
	e.nextActive = pairbits.Reset(e.nextActive, e.lay.slots)
	e.dirty = pairbits.Reset(e.dirty, e.lay.slots)
	e.lay.markAll(e.active)
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
// candidate adjacency (ForEachCandidateDependent): a pair re-enters the worklist only when a pair its
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
		mark := func(pos int) {
			if l.member == nil || l.member.Get(pos) {
				next.Set(pos)
			}
		}
		damping := e.opts.Damping
		js := &e.workers[0].scratch.join
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
				e.ForEachCandidateDependent(js, x, y, mark)
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
