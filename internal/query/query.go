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
// those pairs on the batch engine's executor (core.ComputeRows), with a
// worklist that skips pairs whose inputs stopped changing. Pairs outside
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
// component in place (see core.CandidateSet.Patch) and refreshes only the
// affected stand-in rows, under a writer lock that excludes in-flight
// queries.
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
	// version counts the graph snapshots this index has served: 0 at
	// construction, +1 per Apply or ResetCandidates. Results stamped with
	// the version they were computed at (TopKSnapshot, QuerySnapshot) are
	// immutable facts about that snapshot, which is what makes them safe
	// to cache: a version-v entry can be served for as long as the current
	// version is still v, and can never silently go stale.
	version uint64
	// rowStandIns lists, per g1 node, the §3.4 stand-ins of its pruned
	// pairs (nil when α = 0), so query states materialize a row slab by
	// walking the candidate row instead of probing all |V2| pairs.
	rowStandIns [][]standIn
	pool        *sync.Pool // *state
}

// standIn is one pruned pair's constant score within a row.
type standIn struct {
	v     graph.NodeID
	score float64
}

// New builds a query index over (g1, g2): the shared candidate component
// (label-similarity table, candidate map, §3.4 bounds) without any score
// iteration. The same validation as core.Compute applies.
func New(g1, g2 *graph.Graph, opts core.Options) (*Index, error) {
	if opts.Float32Scores {
		// The localized fixed point keeps float64 row slabs; serving
		// float32-rounded scores here would break the Compute-identical
		// contract the index is built on.
		return nil, fmt.Errorf("query: Options.Float32Scores is a batch-compute option; the query index keeps float64 state")
	}
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
	return NewFromCandidatesAt(cs, 0)
}

// NewFromCandidatesAt is NewFromCandidates with the graph-version counter
// seeded at version instead of 0. Warm starts use it to resume the version
// sequence a snapshot was taken at, so version-keyed caches and clients
// observe a continuous history across a restart.
func NewFromCandidatesAt(cs *core.CandidateSet, version uint64) *Index {
	ix := &Index{version: version}
	ix.resetLocked(cs)
	return ix
}

// ResetCandidates swaps the index onto a different candidate component,
// rebuilding all derived state. It is the escape hatch for mutations Apply
// cannot absorb in place (core.ErrStoreShape): the index object — and any
// references callers hold to it — stays live across the rebuild.
func (ix *Index) ResetCandidates(cs *core.CandidateSet) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version++
	ix.resetLocked(cs)
}

// Version returns the index's graph-version counter: 0 at construction,
// incremented by every Apply and ResetCandidates. Two reads returning the
// same version are guaranteed to have observed the same graph snapshot.
func (ix *Index) Version() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.version
}

// resetLocked (re)derives every index structure from cs; callers hold the
// write lock (or exclusive ownership during construction).
func (ix *Index) resetLocked(cs *core.CandidateSet) {
	ix.cs = cs
	g1, g2 := cs.Graphs()
	ix.n1, ix.n2 = g1.NumNodes(), g2.NumNodes()
	ix.rowStandIns = nil
	cs.ForEachPruned(func(u, v graph.NodeID, s float64) {
		if ix.rowStandIns == nil {
			ix.rowStandIns = make([][]standIn, ix.n1)
		}
		ix.rowStandIns[u] = append(ix.rowStandIns[u], standIn{v: v, score: s})
	})
	ix.pool = &sync.Pool{New: func() any { return newState(ix) }}
}

// Apply patches the index in place for a mutated graph pair, so a live
// index stays valid across updates without a rebuild: the shared candidate
// component is patched (core.CandidateSet.Patch — membership and §3.4
// bounds re-decided only for touched rows and columns) and the per-row
// stand-in lists are refreshed only where the patch changed a constant.
// Queries block for the duration of the patch and see either the old or
// the new graph, never a mix. The PatchDelta is returned for callers that
// maintain further derived state (the dynamic maintainer's score store).
//
// On core.ErrStoreShape the index is unchanged; rebuild with New instead.
func (ix *Index) Apply(g1, g2 *graph.Graph, touched1, touched2 []graph.NodeID) (*core.PatchDelta, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delta, err := ix.cs.Patch(g1, g2, touched1, touched2)
	if err != nil {
		return nil, err
	}
	ix.version++
	grown := delta.N1 != delta.OldN1 || delta.N2 != delta.OldN2
	if grown {
		// Pooled states size their row maps and slabs to the old node
		// counts; drop them rather than resize piecemeal.
		ix.n1, ix.n2 = delta.N1, delta.N2
		ix.pool = &sync.Pool{New: func() any { return newState(ix) }}
		if ix.rowStandIns != nil {
			for len(ix.rowStandIns) < ix.n1 {
				ix.rowStandIns = append(ix.rowStandIns, nil)
			}
		}
	}
	if len(delta.StandIns) > 0 && ix.rowStandIns == nil {
		ix.rowStandIns = make([][]standIn, ix.n1)
	}
	for _, sc := range delta.StandIns {
		u, v := sc.Key.Split()
		row := ix.rowStandIns[u]
		pos := -1
		for i := range row {
			if row[i].v == v {
				pos = i
				break
			}
		}
		switch {
		case sc.StandIn == 0:
			if pos >= 0 {
				row[pos] = row[len(row)-1]
				ix.rowStandIns[u] = row[:len(row)-1]
			}
		case pos >= 0:
			row[pos].score = sc.StandIn
		default:
			ix.rowStandIns[u] = append(row, standIn{v: v, score: sc.StandIn})
		}
	}
	return delta, nil
}

// Replay runs one localized fresh fixed point seeded at the given
// candidate pairs — their dependency closure is collected and iterated
// exactly like a query — and streams every closure pair's final score to
// fn in an unspecified order. The dynamic maintainer uses it to
// re-converge only the neighborhood of a graph update: the scores fn
// receives are the ones a from-scratch batch computation would assign
// those pairs (bit-identical under a pinned iteration budget). Seeds that
// are not candidate pairs are ignored.
func (ix *Index) Replay(seeds []pairbits.Key, fn func(u, v graph.NodeID, score float64)) (Stats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := ix.pool.Get().(*state)
	defer ix.release(s)
	for _, k := range seeds {
		u, v := k.Split()
		if ix.cs.Contains(u, v) {
			s.addPair(u, v)
		}
	}
	if len(s.pairs) == 0 {
		return Stats{}, nil
	}
	s.closure()
	st := s.run()
	st.Seeds = len(seeds)
	for _, k := range s.pairs {
		u, v := k.Split()
		fn(u, v, s.score(u, v))
	}
	return st, nil
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

// TopKSnapshot is a cache-friendly top-k result: the ranking plus the
// graph version it was computed at. Both are read under one lock hold, so
// the pair is self-consistent even while a writer is applying updates —
// the caching contract the serving layer builds on.
type TopKSnapshot struct {
	// Version is the index's graph version at computation time.
	Version uint64
	// Top is the ranking, immutable once returned.
	Top []stats.Ranked
	// Stats carries the localized computation's diagnostics.
	Stats Stats
}

// ScoreSnapshot is the single-pair analogue of TopKSnapshot.
type ScoreSnapshot struct {
	Version uint64
	Score   float64
	Stats   Stats
}

// TopKSnapshot runs TopK and stamps the result with the graph version it
// was computed at, atomically with respect to Apply.
func (ix *Index) TopKSnapshot(u graph.NodeID, k int) (TopKSnapshot, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	top, st, err := ix.topKLocked(u, k)
	return TopKSnapshot{Version: ix.version, Top: top, Stats: st}, err
}

// QuerySnapshot runs Query and stamps the result with the graph version it
// was computed at, atomically with respect to Apply.
func (ix *Index) QuerySnapshot(u, v graph.NodeID) (ScoreSnapshot, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	score, st, err := ix.queryLocked(u, v)
	return ScoreSnapshot{Version: ix.version, Score: score, Stats: st}, err
}

// topKLocked implements TopK under a held read lock.
func (ix *Index) topKLocked(u graph.NodeID, k int) ([]stats.Ranked, Stats, error) {
	if int(u) < 0 || int(u) >= ix.n1 {
		return nil, Stats{}, fmt.Errorf("query: node %d out of range [0,%d)", u, ix.n1)
	}
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("query: k must be positive, got %d", k)
	}
	seeds := ix.seedRow(u, k)
	if len(seeds) == 0 {
		return nil, Stats{}, nil
	}
	s := ix.pool.Get().(*state)
	defer ix.release(s)
	for _, v := range seeds {
		s.addPair(u, v)
	}
	s.closure()
	st := s.run()
	st.Seeds = len(seeds)

	top := make([]stats.Ranked, len(seeds))
	for i, v := range seeds {
		top[i] = stats.Ranked{Index: int(v), Score: s.score(u, v)}
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
	if int(u) < 0 || int(u) >= ix.n1 {
		return 0, Stats{}, fmt.Errorf("query: node %d out of range [0,%d)", u, ix.n1)
	}
	if int(v) < 0 || int(v) >= ix.n2 {
		return 0, Stats{}, fmt.Errorf("query: node %d out of range [0,%d)", v, ix.n2)
	}
	if !ix.cs.Contains(u, v) {
		return ix.cs.StandIn(u, v), Stats{}, nil
	}
	s := ix.pool.Get().(*state)
	defer ix.release(s)
	s.addPair(u, v)
	s.closure()
	st := s.run()
	st.Seeds = 1
	return s.score(u, v), st, nil
}

// seedRow selects the frontier of a TopK query: every candidate v of row u
// whose Eq. 6 upper bound can still reach the k-th best certified lower
// bound. The lower bound is the label term every post-initialization score
// retains, (1−damping)·(1−w⁺−w⁻)·L(u, v) (or 1 for a pinned diagonal
// pair); since FSimχ(u, v) ≤ FSim̄(u, v), a candidate failing the
// threshold cannot rank above any of the k certified ones. Under damping
// the transient scores may exceed Eq. 6's fixed-point bound, so pruning is
// disabled and every row candidate is seeded.
func (ix *Index) seedRow(u graph.NodeID, k int) []graph.NodeID {
	opts := ix.cs.Options()
	var cands []graph.NodeID
	ix.cs.ForEachCandidate(u, func(v graph.NodeID) { cands = append(cands, v) })
	if len(cands) <= k || opts.Damping > 0 {
		return cands
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
	seeds := cands[:0]
	for _, v := range cands {
		if opts.PinDiagonal && u == v {
			seeds = append(seeds, v)
			continue
		}
		if ix.cs.Bound(u, v) >= kth {
			seeds = append(seeds, v)
		}
	}
	return seeds
}

// release resets a query state and returns it to the pool.
func (ix *Index) release(s *state) {
	s.reset()
	ix.pool.Put(s)
}
