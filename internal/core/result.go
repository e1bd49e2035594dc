package core

import (
	"time"

	"fsim/internal/graph"
	"fsim/internal/stats"
)

// Result holds the converged FSimχ scores plus computation diagnostics.
type Result struct {
	cs *CandidateSet
	// scores holds one score per candidate pair, at its
	// CandidateSet.Position; non-candidates resolve through StandIn.
	scores []float64

	// Iterations is the number of update rounds executed.
	Iterations int
	// Converged reports whether the epsilon criterion was met before
	// MaxIters.
	Converged bool
	// Deltas records the maximum absolute score change of each iteration
	// (the Δk of Theorem 1; it decreases monotonically under the maximum
	// mapping operator).
	Deltas []float64
	// CandidateCount is |Hc|, the number of maintained node pairs.
	CandidateCount int
	// ActivePairs records, per iteration, how many pairs the worklist
	// recomputed (DeltaMode only; nil otherwise). The first entry equals
	// CandidateCount — the first round recomputes every pair — and the
	// trajectory shrinking toward zero is the worklist's saved work,
	// reported alongside PrunedCount's one-off candidate reduction.
	ActivePairs []int
	// PrunedCount is the number of label-eligible pairs removed by
	// upper-bound pruning.
	PrunedCount int
	// Work holds per-worker accumulated work units (Σ neighbor-product
	// sizes); its spread measures how evenly the dynamic chunk queue
	// distributed the candidate pairs across workers.
	Work []int64
	// Duration is the wall-clock computation time.
	Duration time.Duration
}

// Graphs returns the two input graphs.
func (r *Result) Graphs() (*graph.Graph, *graph.Graph) { return r.cs.Graphs() }

// Options returns the normalized options the computation ran with.
func (r *Result) Options() Options { return r.cs.opts }

// Candidates returns the candidate component the computation ran on. It is
// read-only and shared; a query Index built over the same graphs and
// options reuses an identical structure.
func (r *Result) Candidates() *CandidateSet { return r.cs }

// Score returns FSimχ(u, v). Pairs outside the candidate set return their
// §3.4 stand-in: α·FSim̄ when upper-bound pruning retained the bound, else
// 0.
func (r *Result) Score(u, v graph.NodeID) float64 {
	if pos := r.cs.Position(u, v); pos >= 0 {
		return r.scores[pos]
	}
	return r.cs.StandIn(u, v)
}

// at reads the score of the candidate at position pos.
func (r *Result) at(pos int) float64 { return r.scores[pos] }

// Scores returns the candidate-aligned score vector: one score per
// candidate pair, at its CandidateSet.Position. The slice is the result's
// own; the dynamic maintainer adopts it as its score store.
func (r *Result) Scores() []float64 { return r.scores }

// Contains reports whether the pair (u, v) is maintained in the candidate
// map Hc.
func (r *Result) Contains(u, v graph.NodeID) bool { return r.cs.Contains(u, v) }

// ForEach calls fn for every maintained pair in deterministic (u, v) order.
func (r *Result) ForEach(fn func(u, v graph.NodeID, score float64)) {
	for pos, n := 0, r.cs.NumCandidates(); pos < n; pos++ {
		u, v := r.cs.PairAt(pos)
		fn(u, v, r.at(pos))
	}
}

// Row returns the maintained scores of node u as (v, score) pairs in
// ascending v order.
func (r *Result) Row(u graph.NodeID) []stats.Ranked { return r.cs.ScoreRow(u, r.at) }

// TopK returns the k best-scoring v for node u (descending score,
// ascending v on ties).
func (r *Result) TopK(u graph.NodeID, k int) []stats.Ranked {
	return stats.TopRanked(r.Row(u), k)
}

// ArgMax returns every v attaining max_v FSim(u, v) over the maintained
// pairs of u (the alignment case study's Au), with the attained score;
// an empty row returns (nil, 0).
func (r *Result) ArgMax(u graph.NodeID) ([]graph.NodeID, float64) {
	row := r.Row(u)
	if len(row) == 0 {
		return nil, 0
	}
	best := row[0].Score
	for _, e := range row[1:] {
		if e.Score > best {
			best = e.Score
		}
	}
	var out []graph.NodeID
	for _, e := range row {
		if e.Score == best {
			out = append(out, graph.NodeID(e.Index))
		}
	}
	return out, best
}

// SampleScores evaluates Score over the supplied pairs; sensitivity
// experiments correlate such vectors across configurations.
func (r *Result) SampleScores(pairs [][2]graph.NodeID) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = r.Score(p[0], p[1])
	}
	return out
}

// LoadBalance returns max(work)/mean(work) across the workers that
// performed any work — 1.0 is a perfectly even split (the paper's
// work-distribution claim, Fig 9(a), realized here by a dynamic chunk
// queue rather than a static round-robin shard). Workers with zero work
// are excluded from the mean: under dynamic scheduling an idle worker
// means the queue drained before the runtime ever ran its goroutine
// (routine on hosts with fewer cores than Threads, or when the workload
// fits in a handful of chunks), not that the engine assigned work
// unevenly. Returns 1 when at most one worker participated.
func (r *Result) LoadBalance() float64 {
	var sum, max int64
	busy := 0
	for _, w := range r.Work {
		if w == 0 {
			continue
		}
		busy++
		sum += w
		if w > max {
			max = w
		}
	}
	if busy <= 1 {
		return 1
	}
	mean := float64(sum) / float64(busy)
	return float64(max) / mean
}
