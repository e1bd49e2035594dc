package core

import (
	"math"
	"math/bits"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/matching"
)

// MappingKind selects the mapping operator Mχ of Equation 2: which node
// pairs between two neighbor sets contribute score mass.
type MappingKind int

const (
	// MapBest pairs every x ∈ S1 with its best-scoring y ∈ S2 (the fs of
	// Table 3; simple simulation). A label-ineligible pair reads 0, so an
	// x without an eligible partner contributes 0.
	MapBest MappingKind = iota
	// MapInjective pairs up to min(|S1|, |S2|) nodes injectively,
	// maximizing the score sum via the greedy weighted-matching heuristic
	// (fdp and fbj of Table 3; degree-preserving and bijective simulation).
	MapInjective
	// MapBidirectional pairs every x ∈ S1 with its best y ∈ S2 and every
	// y ∈ S2 with its best x ∈ S1 (the fb of Table 3; bisimulation).
	MapBidirectional
	// MapProduct pairs every (x, y) ∈ S1 × S2 (SimRank's configuration,
	// §4.3).
	MapProduct
)

// NormKind selects the normalizing operator Ωχ of Equation 2.
type NormKind int

const (
	NormS1      NormKind = iota // |S1|           (s, dp)
	NormSum                     // |S1| + |S2|    (b)
	NormSqrt                    // √(|S1|·|S2|)   (bj)
	NormMax                     // max(|S1|,|S2|) (RoleSim configuration)
	NormProduct                 // |S1|·|S2|      (SimRank configuration)
)

// Operators bundles the mapping and normalizing operators together with the
// variant's empty-neighborhood semantics. Equation 2 is 0/0 when a side has
// no neighbors; the Empty* fields resolve those cases so that simulation
// definiteness (P2) holds.
type Operators struct {
	Mapping MappingKind
	Norm    NormKind

	// EmptyBoth is the neighbor-score when |S1| = |S2| = 0.
	EmptyBoth float64
	// EmptyS1 is the neighbor-score when |S1| = 0, |S2| > 0.
	EmptyS1 float64
	// EmptyS2 is the neighbor-score when |S2| = 0, |S1| > 0.
	EmptyS2 float64

	// ExactMatching replaces the greedy matching heuristic of MapInjective
	// with the exact Hungarian algorithm. The greedy default is what the
	// paper deploys (a 1/2-approximation, [23]); exact matching restores
	// condition C3 of Theorem 1 — and with it strict monotone convergence —
	// at O(d³) per pair. Exposed for the matching ablation.
	ExactMatching bool
}

// OperatorsFor returns Table 3's configuration for a χ-simulation variant.
func OperatorsFor(variant exact.Variant) Operators {
	switch variant {
	case exact.S:
		// u's neighbors must all be coverable; v may have extras.
		return Operators{Mapping: MapBest, Norm: NormS1, EmptyBoth: 1, EmptyS1: 1, EmptyS2: 0}
	case exact.DP:
		return Operators{Mapping: MapInjective, Norm: NormS1, EmptyBoth: 1, EmptyS1: 1, EmptyS2: 0}
	case exact.B:
		// Either side having uncovered neighbors breaks bisimulation.
		return Operators{Mapping: MapBidirectional, Norm: NormSum, EmptyBoth: 1, EmptyS1: 0, EmptyS2: 0}
	case exact.BJ:
		return Operators{Mapping: MapInjective, Norm: NormSqrt, EmptyBoth: 1, EmptyS1: 0, EmptyS2: 0}
	}
	panic("core: unknown variant")
}

// omega evaluates Ωχ(S1, S2) for non-empty sets.
func (op *Operators) omega(n1, n2 int) float64 {
	switch op.Norm {
	case NormS1:
		return float64(n1)
	case NormSum:
		return float64(n1 + n2)
	case NormSqrt:
		return math.Sqrt(float64(n1) * float64(n2))
	case NormMax:
		if n1 > n2 {
			return float64(n1)
		}
		return float64(n2)
	case NormProduct:
		return float64(n1) * float64(n2)
	}
	panic("core: unknown norm")
}

// mapBound returns an upper bound on |Mχ(S1, S2)| given the per-side counts
// of nodes having at least one label-eligible partner (e1 over S1, e2 over
// S2). Used by Eq. 6's λ terms.
func (op *Operators) mapBound(n1, n2, e1, e2 int) float64 {
	switch op.Mapping {
	case MapBest:
		return float64(e1)
	case MapInjective:
		m := e1
		if e2 < m {
			m = e2
		}
		if n2 < m {
			m = n2
		}
		return float64(m)
	case MapBidirectional:
		return float64(e1 + e2)
	case MapProduct:
		return float64(n1 * n2)
	}
	panic("core: unknown mapping")
}

// neighborScore computes FSimχ(S1, S2) of Equation 2 for one direction:
// the mapping operator's maximum score mass divided by Ωχ, with the
// empty-set conventions applied. lookup returns the previous-iteration
// score of a cross pair; m is the row eligibility mask of s1, nil when
// every pair is to be read (MapProduct, or every label pair eligible),
// and labels2 the g2 node labels.
//
// With a mask the operators visit only the label-eligible pairs: for each
// y ∈ s2, the positions of s1 in P[ℓ2(y)]. A label-ineligible pair would
// read 0 (Remark 2), and scores are never negative, so skipping it leaves
// a maximum unchanged and leaves its entry of a zero-initialised weight
// matrix at 0 — every operator gives exactly what reading every pair
// would. MapBest and MapBidirectional then keep a running maximum per x
// in scratch and sum them in x order once every y is visited, as the
// x-major loops without a mask do; the per-y maxima of MapBidirectional
// are summed in y order on the way, as its y-major loop does.
// MapInjective fills an n1 × n2 weight matrix from the caller's scratch,
// so greedy and Hungarian matching stay allocation-free in the hot loop.
func (op *Operators) neighborScore(
	s1, s2 []graph.NodeID,
	labels2 []graph.Label,
	m *labelMask,
	lookup func(x, y graph.NodeID) float64,
	scratch *opScratch,
) float64 {
	n1, n2 := len(s1), len(s2)
	switch {
	case n1 == 0 && n2 == 0:
		return op.EmptyBoth
	case n1 == 0:
		return op.EmptyS1
	case n2 == 0:
		return op.EmptyS2
	}
	var sum float64
	switch op.Mapping {
	case MapProduct:
		for _, x := range s1 {
			for _, y := range s2 {
				sum += lookup(x, y)
			}
		}
	case MapBest, MapBidirectional:
		if m == nil {
			sum = bestSums(op.Mapping, s1, s2, lookup)
			break
		}
		best := scratch.floats(n1)
		clear(best)
		sumY := 0.0
		for _, y := range s2 {
			bestY := 0.0
			for w, word := range m.of(labels2[y]) {
				for ; word != 0; word &= word - 1 {
					i := w*64 + bits.TrailingZeros64(word)
					s := lookup(s1[i], y)
					if s > best[i] {
						best[i] = s
					}
					if s > bestY {
						bestY = s
					}
				}
			}
			sumY += bestY
		}
		for _, b := range best {
			sum += b
		}
		if op.Mapping == MapBidirectional {
			sum += sumY
		}
	case MapInjective:
		w := scratch.floats(n1 * n2)
		if m == nil {
			for i, x := range s1 {
				for j, y := range s2 {
					w[i*n2+j] = lookup(x, y)
				}
			}
		} else {
			clear(w)
			for j, y := range s2 {
				for k, word := range m.of(labels2[y]) {
					for ; word != 0; word &= word - 1 {
						i := k*64 + bits.TrailingZeros64(word)
						w[i*n2+j] = lookup(s1[i], y)
					}
				}
			}
		}
		switch {
		case n1 == 1 || n2 == 1:
			// An injective matching with a single-element side is just the
			// best pair.
			for _, s := range w {
				if s > sum {
					sum = s
				}
			}
		case n1 == 2 && n2 == 2:
			// 2×2 matching in closed form: the better of the two diagonals
			// (which is also exact, not just greedy).
			d1 := w[0] + w[3]
			d2 := w[1] + w[2]
			if d2 > d1 {
				d1 = d2
			}
			sum = d1
		case op.ExactMatching:
			_, sum = matching.Hungarian(w, n1, n2, scratch.m)
		default:
			scratch.m.Grow(n1, n2)
			sum, _ = matching.GreedyDense(w, n1, n2, scratch.m)
		}
	}
	return sum / op.omega(n1, n2)
}

// bestSums is MapBest's or MapBidirectional's score mass over every pair
// of s1 × s2: Σ_{x∈s1} max_{y∈s2} lookup(x, y), x-major, plus for
// MapBidirectional Σ_{y∈s2} max_{x∈s1} lookup(x, y), summed apart and
// added last.
func bestSums(mapping MappingKind, s1, s2 []graph.NodeID, lookup func(x, y graph.NodeID) float64) float64 {
	sum := 0.0
	for _, x := range s1 {
		best := 0.0
		for _, y := range s2 {
			if s := lookup(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	if mapping != MapBidirectional {
		return sum
	}
	sumY := 0.0
	for _, y := range s2 {
		best := 0.0
		for _, x := range s1 {
			if s := lookup(x, y); s > best {
				best = s
			}
		}
		sumY += best
	}
	return sum + sumY
}

// forEachDependent enumerates the pairs whose Equation 3 value reads
// FSim(x, y) — the reverse adjacency of the delta worklist. Every mapping
// operator (best, injective, bidirectional, product) consumes the full
// previous-iteration score cross product of the neighbor sets it maps, so
// the dependency structure is mapping-independent: (u, v) recomputes from
// (x, y) iff x ∈ Out(u) ∧ y ∈ Out(v) (the w⁺ term; equivalently
// u ∈ In(x) ∧ v ∈ In(y)) or x ∈ In(u) ∧ y ∈ In(v) (the w⁻ term). A
// direction with zero weight contributes nothing to Equation 3 and is
// skipped.
func forEachDependent(g1, g2 *graph.Graph, x, y graph.NodeID, wplus, wminus float64, mark func(u, v graph.NodeID)) {
	if wplus > 0 {
		for _, u := range g1.In(x) {
			for _, v := range g2.In(y) {
				mark(u, v)
			}
		}
	}
	if wminus > 0 {
		for _, u := range g1.Out(x) {
			for _, v := range g2.Out(y) {
				mark(u, v)
			}
		}
	}
}

// opScratch holds the per-worker reusable buffers of neighborScore.
type opScratch struct {
	weights []float64 // MapInjective's weight matrix, or the per-x maxima
	m       *matching.Scratch
}

// floats returns n floats of the scratch weights, holding whatever the
// last use left.
func (s *opScratch) floats(n int) []float64 {
	if cap(s.weights) < n {
		s.weights = make([]float64, n)
	}
	return s.weights[:n]
}

func newOpScratch() *opScratch {
	return &opScratch{m: matching.NewScratch(8, 8)}
}
