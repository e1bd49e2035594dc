// Package stats provides the evaluation statistics used throughout the
// paper's §5: Pearson's correlation coefficient (sensitivity analysis),
// nDCG (node-similarity ranking quality), F1 (pattern matching and graph
// alignment), top-k selection helpers, and the quartiles that summarize
// repeated timings.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Pearson returns Pearson's correlation coefficient of the paired samples
// x and y. It returns 0 when either sample has zero variance or the slices
// differ in length or are empty (matching the "uncorrelated" convention the
// sensitivity plots rely on).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 && vy == 0 {
		// Two constant vectors: perfectly correlated when identical
		// (needed when comparing two runs that both converge to the same
		// constant scores), uncorrelated otherwise.
		for i := range x {
			if x[i] != y[i] {
				return 0
			}
		}
		return 1
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// DCG returns the discounted cumulative gain of a relevance list in ranked
// order, using the standard log2 discount: Σ relᵢ / log2(i+2).
func DCG(rels []float64) float64 {
	dcg := 0.0
	for i, r := range rels {
		dcg += r / math.Log2(float64(i)+2)
	}
	return dcg
}

// NDCG returns DCG(rels) normalized by the DCG of the ideal (descending)
// ordering of the same relevance multiset; 0 when all relevances are 0.
func NDCG(rels []float64) float64 {
	ideal := append([]float64(nil), rels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := DCG(ideal)
	if idcg == 0 {
		return 0
	}
	return DCG(rels) / idcg
}

// F1 combines precision and recall; it returns 0 when both are 0.
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// Ranked pairs an item index with its score for top-k selection.
type Ranked struct {
	Index int
	Score float64
}

// TopK returns the k highest-scoring indices in descending score order,
// breaking ties by ascending index for determinism. k larger than the input
// is clamped.
func TopK(scores []float64, k int) []Ranked {
	all := make([]Ranked, len(scores))
	for i, s := range scores {
		all[i] = Ranked{Index: i, Score: s}
	}
	return TopRanked(all, k)
}

// TopRanked is TopK over entries that already carry their index: it sorts
// rs in place (descending score, ascending Index on ties) and returns a
// copy of its first k entries, so callers keeping rankings do not pin rs.
func TopRanked(rs []Ranked, k int) []Ranked {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Score != rs[b].Score {
			return rs[a].Score > rs[b].Score
		}
		return rs[a].Index < rs[b].Index
	})
	if k > len(rs) {
		k = len(rs)
	}
	return slices.Clone(rs[:k])
}

// ArgMaxSet returns every index attaining the maximum score (used by the
// alignment case study, where Au = argmax_v FSim(u, v) may be a set), or
// nil for an empty input.
func ArgMaxSet(scores []float64) []int {
	if len(scores) == 0 {
		return nil
	}
	best := math.Inf(-1)
	for _, s := range scores {
		if s > best {
			best = s
		}
	}
	var out []int
	for i, s := range scores {
		if s == best {
			out = append(out, i)
		}
	}
	return out
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quartiles returns the lower quartile, median and upper quartile of xs:
// the sorted values at ranks ⌊n/4⌋, ⌊n/2⌋ and ⌊3n/4⌋ (zeros for no values).
func Quartiles(xs []float64) (q1, median, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n > 0 {
		return s[n/4], s[n/2], s[3*n/4]
	}
	return 0, 0, 0
}
