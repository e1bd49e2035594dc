package dynamic

import (
	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/stats"
)

// scoreStore is the maintainer's long-lived score vector: one float64 per
// candidate pair, at the pair's core.CandidateSet.Position, exactly the
// layout of core.Result's scores. Non-candidates resolve to their §3.4
// stand-in through the candidate set on read. It is write-only during
// maintenance — the localized replay recomputes from FSim⁰, never from
// stored scores — so numerical error cannot accumulate across updates.
type scoreStore struct {
	scores []float64
}

// score returns the maintained FSimχ(u, v): the stored score of candidate
// pairs, the §3.4 stand-in of everything else — the same convention as
// core.Result.Score.
func (s *scoreStore) score(cs *core.CandidateSet, u, v graph.NodeID) float64 {
	if pos := cs.Position(u, v); pos >= 0 {
		return s.scores[pos]
	}
	return cs.StandIn(u, v)
}

// remap carries the store across a candidate-set patch (see
// core.CandidateSet.RemapScores). Pairs that entered the map start at 0;
// the maintainer always replays them before reads.
func (s *scoreStore) remap(cs *core.CandidateSet, delta *core.PatchDelta) {
	s.scores = cs.RemapScores(s.scores, delta)
}

// topK ranks the maintained candidates of row u exactly like
// core.Result.TopK: descending score, ties broken by ascending node id.
func (s *scoreStore) topK(cs *core.CandidateSet, u graph.NodeID, k int) []stats.Ranked {
	row := cs.ScoreRow(u, func(pos int) float64 { return s.scores[pos] })
	return stats.TopRanked(row, k)
}
