package query

import (
	"slices"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// state is one query's scratch: the dependency closure and its score rows.
// The store is row-mapped and dense within a row — a node x of g1 touched
// by the closure gets a full |V2|-wide score row, holding FSim⁰ for
// candidates and the constant §3.4 stand-in for non-candidates, so every
// read within a row is one array load; core.ComputeRows then iterates the
// closure on the engine's executor. States are pooled per Index and reused
// across queries; they are not safe for concurrent use (the Index pool
// hands each goroutine its own).
type state struct {
	ix   *Index
	cs   *core.CandidateSet
	plan core.RowPlan

	pairs []pairbits.Key // closure pairs in discovery order; doubles as BFS queue
}

func newState(ix *Index) *state {
	s := &state{ix: ix, cs: ix.cs}
	s.plan.RowOf = make([]int32, ix.n1)
	for i := range s.plan.RowOf {
		s.plan.RowOf[i] = -1
	}
	return s
}

// addRow gives g1 node x a score row and returns its index.
func (s *state) addRow(x graph.NodeID) int32 {
	p := &s.plan
	if r := p.RowOf[x]; r >= 0 {
		return r
	}
	r := int32(len(p.Rows))
	p.RowOf[x] = r
	p.Rows = append(p.Rows, x)
	for words := (len(p.Rows)*s.ix.n2 + 63) / 64; len(p.Member) < words; {
		p.Member = append(p.Member, 0)
	}
	return r
}

// addPair admits a candidate pair into the closure (idempotent).
func (s *state) addPair(x, y graph.NodeID) {
	slot := int(s.addRow(x))*s.ix.n2 + int(y)
	if s.plan.Member.Get(slot) {
		return
	}
	s.plan.Member.Set(slot)
	s.pairs = append(s.pairs, pairbits.MakeKey(x, y))
}

// closure expands the frontier to its dependency closure: every candidate
// pair some admitted pair's Equation 3 update reads, transitively.
// Non-candidate reads stay out — they contribute constants, baked into the
// rows. The closure property guarantees every score an iteration reads is
// itself iterated, so the localized trajectory equals the batch engine's.
func (s *state) closure() {
	for head := 0; head < len(s.pairs); head++ {
		x, y := s.pairs[head].Split()
		s.cs.ForEachRead(x, y, func(a, b graph.NodeID) {
			if s.cs.Contains(a, b) {
				s.addPair(a, b)
			}
		})
	}
}

// materialize seeds the score rows of the collected closure: FSim⁰ at
// candidates and the §3.4 stand-in elsewhere. Non-candidates default to 0
// (their stand-in without §3.4 bounds); walking the candidate row and the
// component's retained stand-ins of that row covers the rest without
// probing all |V2| pairs.
func (s *state) materialize() {
	p := &s.plan
	n2 := s.ix.n2
	p.Prev = slices.Grow(p.Prev[:0], len(p.Rows)*n2)[:len(p.Rows)*n2]
	clear(p.Prev)
	for r, x := range p.Rows {
		row := p.Prev[r*n2 : (r+1)*n2]
		s.cs.ForEachCandidate(x, func(v graph.NodeID) {
			row[v] = s.cs.InitScore(x, v)
		})
		s.cs.ForEachStandIn(x, func(v graph.NodeID, standIn float64) {
			row[v] = standIn
		})
	}
}

// run materializes the closure's rows and iterates them to the fixed
// point.
func (s *state) run() Stats {
	s.materialize()
	iters, converged := s.cs.ComputeRows(&s.plan)
	return Stats{LocalPairs: len(s.pairs), Iterations: iters, Converged: converged}
}

// score reads the final score of a closure pair after run.
func (s *state) score(u, v graph.NodeID) float64 {
	return s.plan.Prev[int(s.plan.RowOf[u])*s.ix.n2+int(v)]
}

// reset returns the state to its pristine pooled form, keeping every
// buffer's capacity.
func (s *state) reset() {
	p := &s.plan
	for _, x := range p.Rows {
		p.RowOf[x] = -1
	}
	p.Rows = p.Rows[:0]
	clear(p.Member)
	p.Member = p.Member[:0]
	s.pairs = s.pairs[:0]
}
