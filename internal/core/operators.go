package core

import (
	"math"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/matching"
)

// MappingKind selects the mapping operator Mχ of Equation 2: which node
// pairs between two neighbor sets contribute score mass.
type MappingKind int

const (
	// MapBest pairs every x ∈ S1 with its best-scoring eligible y ∈ S2
	// (the fs of Table 3; simple simulation).
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
// definiteness (P2) holds — see DESIGN.md §2.3.
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
// score of a cross pair; eligible applies the label constraint θ — nil
// means every pair is eligible (θ = 0), saving the per-element call.
//
// n1 × n2 weight problems for MapInjective reuse the caller's scratch to
// stay allocation-free in the hot loop.
func (op *Operators) neighborScore(
	s1, s2 []graph.NodeID,
	eligible func(x, y graph.NodeID) bool,
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
	case MapBest:
		sum = bestSum(s1, s2, eligible, lookup)
	case MapBidirectional:
		var revEligible func(y, x graph.NodeID) bool
		if eligible != nil {
			revEligible = func(y, x graph.NodeID) bool { return eligible(x, y) }
		}
		sum = bestSum(s1, s2, eligible, lookup) +
			bestSum(s2, s1, revEligible,
				func(y, x graph.NodeID) float64 { return lookup(x, y) })
	case MapProduct:
		for _, x := range s1 {
			for _, y := range s2 {
				if eligible == nil || eligible(x, y) {
					sum += lookup(x, y)
				}
			}
		}
	case MapInjective:
		if n1 == 1 || n2 == 1 {
			// An injective matching with a single-element side is just the
			// best eligible pair; skip the weight matrix entirely.
			best, seen := 0.0, false
			for _, x := range s1 {
				for _, y := range s2 {
					if eligible != nil && !eligible(x, y) {
						continue
					}
					if s := lookup(x, y); !seen || s > best {
						best, seen = s, true
					}
				}
			}
			if seen {
				sum = best
			}
			break
		}
		if n1 == 2 && n2 == 2 {
			// 2×2 matching in closed form: the better of the two diagonals
			// (which is also exact, not just greedy).
			w00 := pairWeight(s1[0], s2[0], eligible, lookup)
			w01 := pairWeight(s1[0], s2[1], eligible, lookup)
			w10 := pairWeight(s1[1], s2[0], eligible, lookup)
			w11 := pairWeight(s1[1], s2[1], eligible, lookup)
			d1 := nonNeg(w00) + nonNeg(w11)
			d2 := nonNeg(w01) + nonNeg(w10)
			if d2 > d1 {
				d1 = d2
			}
			sum = d1
			break
		}
		w := scratch.weights
		if cap(w) < n1*n2 {
			w = make([]float64, n1*n2)
		}
		w = w[:n1*n2]
		scratch.weights = w
		if op.ExactMatching {
			// Ineligible pairs get weight 0: a maximum assignment never
			// gains from them, so the optimum equals the eligible-only
			// maximum-sum matching required by C3.
			for i, x := range s1 {
				row := w[i*n2 : (i+1)*n2]
				for j, y := range s2 {
					if eligible == nil || eligible(x, y) {
						row[j] = lookup(x, y)
					} else {
						row[j] = 0
					}
				}
			}
			_, sum = matching.Hungarian(w, n1, n2, scratch.m)
			break
		}
		scratch.m.Grow(n1, n2)
		if eligible == nil {
			for i, x := range s1 {
				row := w[i*n2 : (i+1)*n2]
				for j, y := range s2 {
					row[j] = lookup(x, y)
				}
			}
		} else {
			for i, x := range s1 {
				row := w[i*n2 : (i+1)*n2]
				for j, y := range s2 {
					if eligible(x, y) {
						row[j] = lookup(x, y)
					} else {
						row[j] = -1 // excluded from the matching
					}
				}
			}
		}
		sum, _ = matching.GreedyDense(w, n1, n2, 0, scratch.m)
	}
	return sum / op.omega(n1, n2)
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

// bestSum is Σ_{x∈s1} max_{y∈s2, eligible} lookup(x, y); an x with no
// eligible partner contributes 0. A nil eligible admits every pair.
func bestSum(s1, s2 []graph.NodeID, eligible func(x, y graph.NodeID) bool, lookup func(x, y graph.NodeID) float64) float64 {
	sum := 0.0
	for _, x := range s1 {
		best := 0.0
		seen := false
		for _, y := range s2 {
			if eligible != nil && !eligible(x, y) {
				continue
			}
			if s := lookup(x, y); !seen || s > best {
				best = s
				seen = true
			}
		}
		if seen {
			sum += best
		}
	}
	return sum
}

// pairWeight is the matching weight of one pair: the score when eligible,
// -1 when excluded by the label constraint.
func pairWeight(x, y graph.NodeID, eligible func(x, y graph.NodeID) bool, lookup func(x, y graph.NodeID) float64) float64 {
	if eligible != nil && !eligible(x, y) {
		return -1
	}
	return lookup(x, y)
}

func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// opScratch holds the per-worker reusable buffers of neighborScore.
type opScratch struct {
	weights []float64
	m       *matching.Scratch
}

func newOpScratch() *opScratch {
	return &opScratch{m: matching.NewScratch(8, 8)}
}
