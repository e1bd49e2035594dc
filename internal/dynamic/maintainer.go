// Package dynamic maintains FSimχ scores incrementally under graph
// mutations (edge insertions/deletions and node insertions), instead of
// recomputing the fixed point from scratch after every update.
//
// A Maintainer holds one immutable graph, its current version, and the
// converged self-similarity scores of that graph. Applying a batch of
// changes derives the next graph version from the current one
// (graph.Graph.Apply copies only the touched adjacency rows and shares
// the label tables), patches the shared candidate component in place
// (core.CandidateSet.Patch), seeds the worklist with exactly the
// pairs whose Equation 3 update rule reads a changed edge — plus the
// dependents of every pair whose candidacy or §3.4 stand-in shifted —
// expands the seeds to their cone of influence through the reverse
// candidate adjacency, and re-converges only that neighborhood with the
// query subsystem's localized fixed point. Pairs outside the cone provably
// retain their trajectory, so their stored scores remain exact.
//
// # When incremental maintenance beats recompute
//
// The per-update cost is proportional to the update's cone of influence,
// not to the graph: it pays off exactly when the candidate map is
// selective (a label constraint θ > 0, §3.4 upper-bound pruning) and the
// graph has locality the cone can respect. A batch whose union cone
// exceeds the locality threshold falls back to one full recompute, which
// still amortizes over the batch's changes; the bench module's fsimperf
// reports the cone (dynamic.cone) and the cost of an Apply
// (dynamic.apply_p50_ms) on the serving configuration. Under θ = 0 every
// pair is a candidate of every other, the cone saturates immediately, and
// per-update cost is honestly that of a full recomputation. Graphs with
// genuinely local structure (disconnected or label-stratified regions) do
// better: the cone — and the cost — stays inside the mutated region, as
// the locality tests in this package demonstrate. The same economics
// govern the query subsystem.
//
// Exactness: with the iteration budget pinned (Options.MaxIters set and
// Epsilon unreachable), maintained scores are bit-identical to a fresh
// core.Compute on the mutated graph, on either candidate store. Under
// adaptive ε-stopping both sides sit within the contraction tail of the
// common fixed point, like query.Index queries.
package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/query"
	"fsim/internal/stats"
)

// ErrClosed is returned by Apply after Close.
var ErrClosed = errors.New("dynamic: maintainer is closed")

// Stats reports one Apply's incremental-maintenance diagnostics.
type Stats struct {
	// Applied is the number of effective changes in the batch (no-ops
	// excluded).
	Applied int
	// Version is the graph version after this Apply: the number of
	// effective batches absorbed since construction (no-op batches leave
	// it unchanged). It equals Maintainer.Version at return time and
	// stamps which snapshot the batch produced — the serving layer keys
	// its result cache on it.
	Version uint64
	// Seeds is the number of worklist seed pairs: candidate pairs whose
	// update rule reads a changed edge, plus dependents of candidacy and
	// stand-in flips.
	Seeds int
	// Cone is the size of the seeds' cone of influence — every candidate
	// pair whose score trajectory the update can reach through the reverse
	// candidate adjacency. 0 when the maintainer fell back to a full
	// recompute.
	Cone int
	// LocalPairs is the size of the dependency closure the localized
	// replay iterated (the cone plus everything it transitively reads).
	LocalPairs int
	// Iterations mirrors the replay's (or the fallback computation's)
	// round count; Converged its ε-criterion outcome.
	Iterations int
	Converged  bool
	// Full marks a fall back to a full recomputation: the cone of
	// influence exceeded the locality threshold.
	Full bool
	// Duration is the wall-clock time of the whole Apply.
	Duration time.Duration
}

// coneLimit is the locality threshold: when the cone of influence exceeds
// this fraction of the candidate map, enumerating and replaying it costs
// as much as a fresh batch computation, so the maintainer falls back.
const coneLimit = 4 // denominator: fall back when 4·|cone| > |Hc|

// Maintainer incrementally maintains the self-similarity FSimχ scores of
// an evolving graph (the paper's single-graph protocol: scores from the
// graph to itself). Build one with New, mutate through Apply, and read
// through Score/TopK, or ScoreAt/TopKAt to learn the version read as well.
// It holds the graph once, as the immutable current version that readers
// and the candidate component share; Apply replaces it with the version
// graph.Graph.Apply derives. A Maintainer is safe for concurrent readers;
// Apply excludes them while it runs.
type Maintainer struct {
	mu sync.RWMutex
	g  *graph.Graph // current snapshot (guarded by mu); Apply derives the next from it
	// snap mirrors g behind an atomic pointer so liveness-style readers
	// (Graph) never block behind an in-flight Apply, which holds mu
	// exclusively for the whole re-convergence — up to a full recompute.
	snap atomic.Pointer[graph.Graph]
	// version is the graph version: 0 at construction (or the snapshot's
	// version on a warm start), +1 each time Apply patches the candidate
	// component. It changes only under mu's write lock, so a read
	// under mu pairs it with the state it stamps; Version reads it
	// lock-free, so liveness probes and cache keys never wait on an Apply.
	version atomic.Uint64
	opts    core.Options // normalized
	cs      *core.CandidateSet
	ix      *query.Index
	store   scoreStore
	// log, when non-nil, retains applied change batches per version for
	// change-log replication (see RetainChanges / ChangesSince).
	log *changeLog
	// onApply, when set, observes every effective Apply (see SetApplyHook).
	onApply func(version uint64, st Stats)
	closed  bool
}

// New computes the initial fixed point of g against itself and returns a
// Maintainer holding it. Custom Options.Init functions are rejected: the
// maintainer must bound an update's influence on initial scores, which an
// arbitrary function of the whole graph defeats (the default label-
// similarity initialization and PinDiagonal are fine).
func New(g *graph.Graph, opts core.Options) (*Maintainer, error) {
	if opts.Init != nil {
		return nil, errors.New("dynamic: custom Options.Init is not supported; initial scores must be local to the pair")
	}
	cs, err := core.NewCandidateSet(g, g, opts)
	if err != nil {
		return nil, err
	}
	res, err := core.ComputeOn(cs)
	if err != nil {
		return nil, err
	}
	mt := &Maintainer{
		g:     g,
		opts:  cs.Options(),
		cs:    cs,
		ix:    query.NewFromCandidates(cs),
		store: scoreStore{scores: res.Scores()},
	}
	mt.snap.Store(g)
	return mt, nil
}

// Graph returns the current immutable snapshot. It is lock-free — during
// an in-flight Apply it returns the last settled snapshot instead of
// blocking, so liveness probes stay responsive however long an update's
// re-convergence runs.
func (mt *Maintainer) Graph() *graph.Graph {
	return mt.snap.Load()
}

// GraphAt returns the current snapshot together with the version it is at,
// atomically with respect to Apply. Reading Graph() and Version()
// separately can interleave with a concurrent update and pair one
// snapshot's structure with the other's version; whole-graph serving
// workloads (pattern matching, alignment, structural node measures) need
// the consistent pair to stamp their responses.
func (mt *Maintainer) GraphAt() (*graph.Graph, uint64) {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.g, mt.version.Load()
}

// Options returns the normalized options the maintainer runs with.
func (mt *Maintainer) Options() core.Options { return mt.opts }

// Index returns the live single-source query index over the maintained
// graph. It is patched in place by Apply, so queries issued at any time
// see the current snapshot; concurrent queries and updates are safe.
func (mt *Maintainer) Index() *query.Index { return mt.ix }

// Version returns the current graph version: 0 at construction, +1 per
// effective Apply (see Stats.Version) — the sequence GraphAt, ScoreAt and
// TopKAt stamp their reads with. It is lock-free: during an in-flight
// Apply it may already return the version that Apply will produce, and
// reads stamped with that version wait for the Apply to finish.
func (mt *Maintainer) Version() uint64 { return mt.version.Load() }

// SetApplyHook registers fn to observe every effective Apply: it runs just
// before Apply returns, with the new graph version and the batch's Stats.
// The serving layer uses it to invalidate version-keyed result caches.
// fn is called with the maintainer's write lock held — it must be fast and
// must not call back into the Maintainer (its Index is safe). Passing nil
// clears the hook.
func (mt *Maintainer) SetApplyHook(fn func(version uint64, st Stats)) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.onApply = fn
}

// Close marks the maintainer closed: subsequent Apply calls return
// ErrClosed, while reads (Score, TopK, Index queries) keep serving the
// final snapshot. Close is idempotent and safe for concurrent use; it
// exists so a serving layer can drain writes deterministically on
// shutdown.
func (mt *Maintainer) Close() error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.closed = true
	return nil
}

// Score returns the maintained FSimχ(u, v) on the current snapshot —
// candidate pairs their converged score, everything else its §3.4
// stand-in, exactly like core.Result.Score.
func (mt *Maintainer) Score(u, v graph.NodeID) (float64, error) {
	score, _, err := mt.ScoreAt(u, v)
	return score, err
}

// ScoreAt is Score together with the graph version the score belongs to,
// both read under one lock hold, so the pair is consistent even while a
// writer is applying updates. Out-of-range nodes fail with the same error
// as query.Index.Query.
func (mt *Maintainer) ScoreAt(u, v graph.NodeID) (float64, uint64, error) {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	n := mt.g.NumNodes()
	if err := query.CheckPair(u, v, n, n); err != nil {
		return 0, 0, err
	}
	return mt.store.score(mt.cs, u, v), mt.version.Load(), nil
}

// TopK returns the k best-scoring maintained candidates v for node u, in
// descending score order with ties broken by ascending v — the ranking a
// fresh core.Compute followed by Result.TopK would produce.
func (mt *Maintainer) TopK(u graph.NodeID, k int) ([]stats.Ranked, error) {
	top, _, err := mt.TopKAt(u, k)
	return top, err
}

// TopKAt is TopK together with the graph version the ranking belongs to,
// read under one lock hold like ScoreAt. Bad requests fail with the same
// errors as query.Index.TopK.
func (mt *Maintainer) TopKAt(u graph.NodeID, k int) ([]stats.Ranked, uint64, error) {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	if err := query.CheckTopK(u, k, mt.g.NumNodes()); err != nil {
		return nil, 0, err
	}
	return mt.store.topK(mt.cs, u, k), mt.version.Load(), nil
}

// Apply mutates the maintained graph by one batch of changes and
// re-converges the affected scores. Redundant changes (adding a present
// edge, removing an absent one) are no-ops; range errors reject the whole
// batch before anything is applied. Batching amortizes: one Apply of n
// changes pays for the union of the n cones once — as one localized
// replay when the union stays under the locality threshold, as a single
// full recompute (instead of up to n) when it does not.
func (mt *Maintainer) Apply(changes []graph.Change) (Stats, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.closed {
		return Stats{}, ErrClosed
	}
	st, err := mt.applyLocked(changes)
	st.Version = mt.version.Load()
	if err == nil && st.Applied > 0 && mt.onApply != nil {
		mt.onApply(st.Version, st)
	}
	return st, err
}

// applyLocked is Apply under a held write lock, without version stamping
// or hook dispatch.
func (mt *Maintainer) applyLocked(changes []graph.Change) (Stats, error) {
	start := time.Now()

	// Validate the whole batch against the evolving node count before
	// mutating anything, so a bad change cannot leave a half-applied batch.
	n := graph.NodeID(mt.g.NumNodes())
	for _, c := range changes {
		switch c.Op {
		case graph.OpAddNode:
			n++
		case graph.OpAddEdge, graph.OpRemoveEdge:
			if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
				return Stats{}, fmt.Errorf("dynamic: change %v out of range [0,%d)", c, n)
			}
		default:
			return Stats{}, fmt.Errorf("dynamic: unknown change op %v", c.Op)
		}
	}

	oldN := mt.g.NumNodes()
	g, applied, err := mt.g.Apply(changes)
	if err != nil {
		return Stats{}, err // unreachable after validation; defensive
	}
	st := Stats{Applied: len(applied)}
	if st.Applied == 0 {
		st.Duration = time.Since(start)
		return st, nil
	}
	// The pre-existing endpoints of the effective edge changes, once each.
	var touched []graph.NodeID
	for _, c := range applied {
		if c.Op == graph.OpAddNode {
			continue
		}
		for _, u := range [2]graph.NodeID{c.U, c.V} {
			if int(u) < oldN {
				touched = append(touched, u)
			}
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)

	delta, err := mt.ix.Apply(g, g, touched, touched)
	if err != nil {
		return st, err
	}
	mt.version.Add(1)
	mt.g = g
	mt.snap.Store(g)
	mt.retainLocked(applied)
	mt.store.remap(mt.cs, delta)

	seeds, visited := mt.seedPairs(touched, oldN, delta)
	st.Seeds = len(seeds)
	cone, saturated := mt.coneOfInfluence(seeds, visited)
	if saturated {
		res, err := core.ComputeOn(mt.cs)
		if err != nil {
			return st, err
		}
		mt.store.scores = res.Scores()
		st.Full = true
		st.Iterations, st.Converged = res.Iterations, res.Converged
		st.Duration = time.Since(start)
		return st, nil
	}
	st.Cone = len(cone)
	rst, err := mt.ix.Replay(cone, func(u, v graph.NodeID, score float64) {
		mt.store.set(mt.cs, u, v, score)
	})
	if err != nil {
		return st, err
	}
	st.LocalPairs, st.Iterations, st.Converged = rst.LocalPairs, rst.Iterations, rst.Converged
	st.Duration = time.Since(start)
	return st, nil
}

// seedPairs collects the pairs whose Equation 3 trajectory an update
// directly perturbs:
//
//   - every candidate pair in a touched row or column (its update rule
//     reads the changed neighborhood) — new nodes count as touched;
//   - every candidate dependent of a pair whose membership or stand-in
//     constant changed (its inputs changed value even though its own rule
//     did not).
//
// Everything else the update influences is reached from these seeds
// through the reverse candidate adjacency (coneOfInfluence). The seeds
// come back once each, with the bitset over candidate positions that
// marks them.
func (mt *Maintainer) seedPairs(touched []graph.NodeID, oldN int, delta *core.PatchDelta) ([]pairbits.Key, pairbits.Bitset) {
	n := mt.g.NumNodes()
	seen := pairbits.NewBitset(mt.cs.NumCandidates())
	var seeds []pairbits.Key
	add := func(u, v graph.NodeID) { // admits candidate pairs only
		if pos := mt.cs.Position(u, v); pos >= 0 && !seen.Get(pos) {
			seen.Set(pos)
			seeds = append(seeds, pairbits.MakeKey(u, v))
		}
	}
	nodes := append([]graph.NodeID(nil), touched...)
	for u := oldN; u < n; u++ {
		nodes = append(nodes, graph.NodeID(u))
	}
	for _, u := range nodes {
		mt.cs.ForEachCandidate(u, func(v graph.NodeID) { add(u, v) })
		for x := 0; x < n; x++ {
			add(graph.NodeID(x), u)
		}
	}
	flipped := make([]pairbits.Key, 0, len(delta.Added)+len(delta.Removed)+len(delta.StandIns))
	flipped = append(flipped, delta.Added...)
	flipped = append(flipped, delta.Removed...)
	for _, sc := range delta.StandIns {
		flipped = append(flipped, sc.Key)
	}
	for _, k := range flipped {
		x, y := k.Split()
		mt.cs.ForEachDependent(x, y, add)
	}
	return seeds, seen
}

// coneOfInfluence expands the seeds, marked in visited by candidate
// position, through the reverse candidate adjacency to every candidate
// pair the update can reach — the set whose trajectories may differ from
// the pre-update computation. It bails out once the cone exceeds the
// locality threshold (saturated = true): past that point a localized
// replay costs as much as a fresh batch computation, which is also
// trivially exact.
func (mt *Maintainer) coneOfInfluence(seeds []pairbits.Key, visited pairbits.Bitset) ([]pairbits.Key, bool) {
	limit := max(mt.cs.NumCandidates()/coneLimit, 1)
	queue := seeds
	if len(queue) > limit {
		return nil, true
	}
	for head := 0; head < len(queue); head++ {
		x, y := queue[head].Split()
		saturated := false
		mt.cs.ForEachDependent(x, y, func(u, v graph.NodeID) {
			if saturated {
				return
			}
			pos := mt.cs.Position(u, v)
			if pos < 0 || visited.Get(pos) {
				return
			}
			visited.Set(pos)
			queue = append(queue, pairbits.MakeKey(u, v))
			saturated = len(queue) > limit
		})
		if saturated {
			return nil, true
		}
	}
	return queue, false
}
