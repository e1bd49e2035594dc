// Package matching implements the bipartite matching algorithms the FSimχ
// framework depends on:
//
//   - Greedy: the 1/2-approximate maximum-weight matching heuristic the
//     paper cites (Avis, "A survey of heuristics for the weighted matching
//     problem", 1983) — used inside the Mdp and Mbj mapping operators.
//   - Hungarian: exact maximum-weight assignment — the mapping operators'
//     ExactMatching option, and the bound on the greedy approximation loss
//     in tests.
//   - HopcroftKarp: maximum-cardinality matching — used by the exact dp/bj
//     simulation checkers, which need to decide whether a relation admits a
//     (perfect) injective neighbor mapping.
package matching

import "sort"

// Edge is a weighted candidate pair between left node I and right node J.
type Edge struct {
	I, J int
	W    float64
}

// Greedy computes a maximal matching by scanning edges in decreasing weight
// order, skipping edges whose endpoint is already matched. It returns the
// chosen edges and their total weight. The result is at least half the
// optimal total weight. Ties are broken by (I, J) to keep runs
// deterministic. The input slice is not modified.
func Greedy(edges []Edge) ([]Edge, float64) {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].W != sorted[b].W {
			return sorted[a].W > sorted[b].W
		}
		if sorted[a].I != sorted[b].I {
			return sorted[a].I < sorted[b].I
		}
		return sorted[a].J < sorted[b].J
	})
	usedL := map[int]bool{}
	usedR := map[int]bool{}
	var picked []Edge
	total := 0.0
	for _, e := range sorted {
		if usedL[e.I] || usedR[e.J] {
			continue
		}
		usedL[e.I] = true
		usedR[e.J] = true
		picked = append(picked, e)
		total += e.W
	}
	return picked, total
}

// GreedyDense computes the same greedy matching as Greedy over a dense
// weight matrix w (n1 rows × n2 cols), considering only the entries with
// weight > 0. Zero and negative entries (a label-ineligible pair reads 0
// in the mapping operators) never enter the sort: a zero-weight edge
// sorts after every positive one, so it cannot change which positive edges
// are picked or the order their weights are summed in, and adding +0
// leaves the total unchanged. The total therefore equals Greedy's over the
// full non-negative edge list, bit for bit, while the sort only pays for
// the positive entries — on sparse score matrices a small fraction of
// n1·n2. GreedyDense avoids materializing the edge list and the maps of
// Greedy; this is the hot path of the Mdp/Mbj operators (hand-rolled sort:
// sort.Slice's reflection swapper dominated profiles). It returns the
// matched total weight and the number of positive-weight matches. The
// scratch is caller-provided to keep the hot loop allocation-free.
func GreedyDense(w []float64, n1, n2 int, scratch *Scratch) (float64, int) {
	// Fast path: one row (or one column) needs no matching — the greedy
	// optimum is the single best positive entry. Sparse graphs hit this
	// for the vast majority of neighborhood pairs.
	if n1 == 1 || n2 == 1 {
		best := 0.0
		for _, x := range w[:n1*n2] {
			if x > best {
				best = x
			}
		}
		if best == 0 {
			return 0, 0
		}
		return best, 1
	}

	edges := scratch.edges[:0]
	for i, x := range w[:n1*n2] {
		if x > 0 {
			edges = append(edges, wEdge{w: x, idx: int32(i)})
		}
	}
	sortEdgesDesc(edges)
	usedL := scratch.usedL[:n1]
	usedR := scratch.usedR[:n2]
	for i := range usedL {
		usedL[i] = false
	}
	for i := range usedR {
		usedR[i] = false
	}
	total := 0.0
	count := 0
	limit := n1
	if n2 < limit {
		limit = n2
	}
	for _, e := range edges {
		i, j := int(e.idx)/n2, int(e.idx)%n2
		if usedL[i] || usedR[j] {
			continue
		}
		usedL[i] = true
		usedR[j] = true
		total += e.w
		count++
		if count == limit {
			break
		}
	}
	scratch.edges = edges[:0]
	return total, count
}

// wEdge pairs a weight with its flattened matrix index.
type wEdge struct {
	w   float64
	idx int32
}

// less orders by weight descending, index ascending (deterministic ties).
func (e wEdge) less(o wEdge) bool {
	if e.w != o.w {
		return e.w > o.w
	}
	return e.idx < o.idx
}

// sortEdgesDesc is a dedicated quicksort with insertion-sort cutoff; it
// avoids sort.Slice's reflection-based swapper in the per-pair hot path.
func sortEdgesDesc(es []wEdge) {
	for len(es) > 12 {
		// Median-of-three pivot.
		m := len(es) / 2
		lo, hi := 0, len(es)-1
		if es[m].less(es[lo]) {
			es[m], es[lo] = es[lo], es[m]
		}
		if es[hi].less(es[lo]) {
			es[hi], es[lo] = es[lo], es[hi]
		}
		if es[hi].less(es[m]) {
			es[hi], es[m] = es[m], es[hi]
		}
		pivot := es[m]
		i, j := 0, len(es)-1
		for i <= j {
			for es[i].less(pivot) {
				i++
			}
			for pivot.less(es[j]) {
				j--
			}
			if i <= j {
				es[i], es[j] = es[j], es[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if j < len(es)-i {
			sortEdgesDesc(es[:j+1])
			es = es[i:]
		} else {
			sortEdgesDesc(es[i:])
			es = es[:j+1]
		}
	}
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].less(es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Scratch holds reusable buffers for GreedyDense and Hungarian. It is not
// safe for concurrent use.
type Scratch struct {
	edges []wEdge
	usedL []bool
	usedR []bool

	// Hungarian's potentials, column assignment, augmenting-path links,
	// slack and visited marks, and its returned row assignment.
	hu, hv, minv    []float64
	hp, way, assign []int
	used            []bool
}

// NewScratch sizes a Scratch for weight matrices up to n1max × n2max.
func NewScratch(n1max, n2max int) *Scratch {
	return &Scratch{
		edges: make([]wEdge, 0, n1max*n2max),
		usedL: make([]bool, n1max),
		usedR: make([]bool, n2max),
	}
}

// Grow ensures the scratch can hold an n1 × n2 problem.
func (s *Scratch) Grow(n1, n2 int) {
	if cap(s.edges) < n1*n2 {
		s.edges = make([]wEdge, 0, n1*n2)
	}
	if len(s.usedL) < n1 {
		s.usedL = make([]bool, n1)
	}
	if len(s.usedR) < n2 {
		s.usedR = make([]bool, n2)
	}
}
