// Package query implements the single-source FSimχ query subsystem: an
// Index built once over two graphs, answering top-k similarity searches
// (TopK) and single-pair score lookups (Query) without computing the full
// all-pairs fixed point.
//
// The Index shares the batch engine's candidate component
// (core.CandidateSet — candidate map, label-similarity cache and §3.4
// upper bounds), so a query is guaranteed to see exactly the candidate
// universe a core.Compute over the same graphs and options would. Each
// query runs a query-localized fixed point: starting from the query
// frontier it collects the dependency closure — the pairs whose scores the
// frontier's Equation 3 updates read, transitively — and iterates only
// those pairs on the batch engine's executor and slot layout
// (core.CandidateSet.RunClosure), with a worklist that skips pairs whose
// inputs stopped changing. Pairs outside
// the closure can never influence the frontier at any iteration, so the
// localized trajectory is identical to the batch engine's, and the
// returned scores agree with Compute up to the two strategies' stopping
// times (bit-identical when both run a pinned number of iterations).
//
// TopK additionally seeds the frontier through §3.4's upper bounds: a row
// candidate whose Eq. 6 bound FSim̄(u, v) cannot reach the k-th best
// certified lower bound is excluded from the frontier before iteration
// (it still joins the closure if a retained pair reads it). Since
// FSimχ ≤ FSim̄, the pruned candidates can never appear in the exact
// top-k, so the pruning is lossless.
//
// An Index is safe for any number of concurrent TopK/Query callers;
// per-query state lives in a pooled scratch. On dynamic graphs an Index
// stays live across mutations: Apply patches the shared candidate
// component in place (see core.CandidateSet.Patch) under a writer lock
// that excludes in-flight queries. The dynamic maintainer uses an Index
// that way, as its replay engine (Replay); served reads come from the
// maintainer's score store, not from here. TopK and Query are the
// library's compute-on-demand API over a graph nobody maintains. The
// graph version lives on the maintainer; an Index has none.
package query

import (
	"fmt"
	"sort"
	"sync"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/stats"
)

// Index answers single-source FSimχ queries over a fixed graph pair and
// option set. Build one with New; the zero value is not usable.
type Index struct {
	// mu excludes queries (readers) while Apply (the only writer) patches
	// the candidate component; on a static graph it is never write-locked.
	mu     sync.RWMutex
	cs     *core.CandidateSet
	n1, n2 int
	pool   sync.Pool // *state
}

// New builds a query index over (g1, g2): the shared candidate component
// (label-similarity table, candidate map, §3.4 bounds) without any score
// iteration. The same validation as core.Compute applies.
func New(g1, g2 *graph.Graph, opts core.Options) (*Index, error) {
	cs, err := core.NewCandidateSet(g1, g2, opts)
	if err != nil {
		return nil, err
	}
	return NewFromCandidates(cs), nil
}

// NewFromCandidates builds a query index over a prebuilt candidate
// component, sharing it instead of re-enumerating: the dynamic maintainer
// uses this to run batch computation, queries and in-place patches against
// one component.
func NewFromCandidates(cs *core.CandidateSet) *Index {
	g1, g2 := cs.Graphs()
	ix := &Index{cs: cs, n1: g1.NumNodes(), n2: g2.NumNodes()}
	ix.pool.New = func() any { return new(state) }
	return ix
}

// Apply patches the index in place for a mutated graph pair, so a live
// index stays valid across every update: the shared candidate component
// is patched (core.CandidateSet.Patch — membership and §3.4 bounds
// re-decided only for touched rows and columns, and the store re-indexed
// when the grown pair universe crosses Options.DenseCapPairs). The index
// derives nothing else from the component — a query's closure lays itself
// out over the component at the start of every run — so beyond the node
// counts there is nothing to refresh. Queries block
// for the duration of the patch and see either the old or the new graph,
// never a mix. The PatchDelta is returned for callers that maintain
// further derived state (the dynamic maintainer's score store).
func (ix *Index) Apply(g1, g2 *graph.Graph, touched1, touched2 []graph.NodeID) (*core.PatchDelta, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delta, err := ix.cs.Patch(g1, g2, touched1, touched2)
	if err != nil {
		return nil, err
	}
	ix.n1, ix.n2 = delta.N1, delta.N2
	return delta, nil
}

// Replay runs one localized fresh fixed point seeded at the given
// candidate pairs — their dependency closure is collected and iterated
// exactly like a query — and streams every closure pair's final score to
// fn in an unspecified order. The scores fn receives are the ones a
// from-scratch batch computation would assign those pairs (bit-identical
// under a pinned iteration budget). Seeds that are not candidate pairs
// are ignored.
func (ix *Index) Replay(seeds []pairbits.Key, fn func(u, v graph.NodeID, score float64)) (Stats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pos := make([]int, 0, len(seeds))
	for _, k := range seeds {
		if p := ix.cs.Position(k.Split()); p >= 0 {
			pos = append(pos, p)
		}
	}
	return ix.replayLocked(pos, func(p int, score float64) {
		u, v := ix.cs.PairAt(p)
		fn(u, v, score)
	}), nil
}

// ReplayAt is Replay with the seeds and the streamed pairs given by
// candidate position (core.CandidateSet.Position). The dynamic maintainer
// uses it to re-converge only the neighborhood of a graph update, whose
// cone of influence it collects by position.
func (ix *Index) ReplayAt(seeds []int, fn func(pos int, score float64)) (Stats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.replayLocked(seeds, fn), nil
}

// replayLocked implements ReplayAt under a held read lock.
func (ix *Index) replayLocked(seeds []int, fn func(pos int, score float64)) Stats {
	s := ix.pool.Get().(*state)
	defer ix.pool.Put(s)
	st := s.run(ix.cs, seeds)
	c := &s.closure
	if c.Len() == 0 {
		return Stats{}
	}
	for i := 0; i < c.Len(); i++ {
		fn(c.Position(i), c.Score(i))
	}
	return st
}

// Candidates exposes the shared candidate component.
func (ix *Index) Candidates() *core.CandidateSet { return ix.cs }

// Options returns the normalized options the index was built with.
func (ix *Index) Options() core.Options { return ix.cs.Options() }

// Stats reports one query's localized-computation diagnostics.
type Stats struct {
	// Seeds is the number of frontier pairs the query started from (for
	// TopK: the row candidates surviving upper-bound seed pruning).
	Seeds int
	// LocalPairs is the size of the dependency closure the query iterated
	// — the query's share of the full candidate map.
	LocalPairs int
	// Iterations and Converged mirror core.Result.
	Iterations int
	Converged  bool
}

// TopK returns the k best-scoring candidates v for node u, in descending
// score order with ties broken by ascending v — the same ranking a full
// core.Compute followed by Result.TopK produces. Fewer than k entries are
// returned when u has fewer maintained candidates.
func (ix *Index) TopK(u graph.NodeID, k int) ([]stats.Ranked, error) {
	top, _, err := ix.TopKStats(u, k)
	return top, err
}

// TopKStats is TopK with the query's computation diagnostics.
func (ix *Index) TopKStats(u graph.NodeID, k int) ([]stats.Ranked, Stats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.topKLocked(u, k)
}

// topKLocked implements TopK under a held read lock.
func (ix *Index) topKLocked(u graph.NodeID, k int) ([]stats.Ranked, Stats, error) {
	if err := CheckTopK(u, k, ix.n1); err != nil {
		return nil, Stats{}, err
	}
	s := ix.pool.Get().(*state)
	defer ix.pool.Put(s)
	var seeds []graph.NodeID
	seeds, s.seeds = ix.seedRow(u, k, s.seeds[:0])
	if len(seeds) == 0 {
		return nil, Stats{}, nil
	}
	st := s.run(ix.cs, s.seeds)

	// The seeds are distinct candidates, so they are the closure's first
	// pairs, in order.
	top := make([]stats.Ranked, len(seeds))
	for i, v := range seeds {
		top[i] = stats.Ranked{Index: int(v), Score: s.closure.Score(i)}
	}
	sort.Slice(top, func(a, b int) bool {
		if top[a].Score != top[b].Score {
			return top[a].Score > top[b].Score
		}
		return top[a].Index < top[b].Index
	})
	if k < len(top) {
		top = top[:k]
	}
	return top, st, nil
}

// Query returns FSimχ(u, v). Pairs outside the candidate map return their
// §3.4 stand-in, exactly like Result.Score.
func (ix *Index) Query(u, v graph.NodeID) (float64, error) {
	score, _, err := ix.QueryStats(u, v)
	return score, err
}

// QueryStats is Query with the query's computation diagnostics.
func (ix *Index) QueryStats(u, v graph.NodeID) (float64, Stats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.queryLocked(u, v)
}

// queryLocked implements Query under a held read lock.
func (ix *Index) queryLocked(u, v graph.NodeID) (float64, Stats, error) {
	if err := CheckPair(u, v, ix.n1, ix.n2); err != nil {
		return 0, Stats{}, err
	}
	pos := ix.cs.Position(u, v)
	if pos < 0 {
		return ix.cs.StandIn(u, v), Stats{}, nil
	}
	s := ix.pool.Get().(*state)
	defer ix.pool.Put(s)
	s.seeds = append(s.seeds[:0], pos)
	st := s.run(ix.cs, s.seeds)
	return s.closure.Score(0), st, nil
}

// CheckTopK validates a top-k read of node u over a graph of n nodes. It
// returns the error TopK reports for a bad request; the dynamic
// maintainer's reads share it, so both read paths fail with the same text.
func CheckTopK(u graph.NodeID, k, n int) error {
	if int(u) < 0 || int(u) >= n {
		return fmt.Errorf("query: node %d out of range [0,%d)", u, n)
	}
	if k <= 0 {
		return fmt.Errorf("query: k must be positive, got %d", k)
	}
	return nil
}

// CheckPair validates a single-pair read of (u, v) over graphs of n1 and
// n2 nodes, with the error Query reports.
func CheckPair(u, v graph.NodeID, n1, n2 int) error {
	if int(u) < 0 || int(u) >= n1 {
		return fmt.Errorf("query: node %d out of range [0,%d)", u, n1)
	}
	if int(v) < 0 || int(v) >= n2 {
		return fmt.Errorf("query: node %d out of range [0,%d)", v, n2)
	}
	return nil
}

// seedRow selects the frontier of a TopK query: every candidate v of row u
// whose Eq. 6 upper bound can still reach the k-th best certified lower
// bound. The lower bound is the label term every post-initialization score
// retains, (1−damping)·(1−w⁺−w⁻)·L(u, v) (or 1 for a pinned diagonal
// pair); since FSimχ(u, v) ≤ FSim̄(u, v), a candidate failing the
// threshold cannot rank above any of the k certified ones. Under damping
// the transient scores may exceed Eq. 6's fixed-point bound, so pruning is
// disabled and every row candidate is seeded. It returns the seeds, and
// their candidate positions appended to pos.
func (ix *Index) seedRow(u graph.NodeID, k int, pos []int) ([]graph.NodeID, []int) {
	opts := ix.cs.Options()
	var cands []graph.NodeID
	ix.cs.ForEachCandidate(u, func(v graph.NodeID) { cands = append(cands, v) })
	lo, _ := ix.cs.RowSpan(u) // cands[i] sits at position lo+i
	if len(cands) <= k || opts.Damping > 0 {
		for i := range cands {
			pos = append(pos, lo+i)
		}
		return cands, pos
	}
	labelW := (1 - opts.Damping) * (1 - opts.WPlus - opts.WMinus)
	lb := func(v graph.NodeID) float64 {
		if opts.PinDiagonal && u == v {
			return 1
		}
		return labelW * ix.cs.LabelSim(u, v)
	}
	lbs := make([]float64, len(cands))
	for i, v := range cands {
		lbs[i] = lb(v)
	}
	sort.Float64s(lbs)
	kth := lbs[len(lbs)-k]
	bounds := ix.cs.RowBounds(u, cands, lbs) // lbs is read; reuse it
	seeds := cands[:0]
	for i, v := range cands {
		if (opts.PinDiagonal && u == v) || bounds[i] >= kth {
			seeds = append(seeds, v)
			pos = append(pos, lo+i)
		}
	}
	return seeds, pos
}
