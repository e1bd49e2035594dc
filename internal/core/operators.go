package core

import (
	"math"

	"fsim/internal/exact"
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

// neighborScore computes FSimχ(S1, S2) of Equation 2 for one direction,
// between n1 neighbours S1 and n2 neighbours S2: the mapping operator's
// maximum score mass divided by Ωχ, with the empty-set conventions
// applied. w lists the previous-iteration scores of the cross pairs that
// may read above 0, in ascending (i, j) order; every pair it does not list
// reads 0.
//
// Scores are never negative, so a pair read as 0 leaves every maximum
// unchanged, adds nothing to a sum and leaves its entry of a
// zero-initialised weight matrix at 0: each operator gives exactly what
// reading every pair would, in the same order of additions. MapProduct
// sums the listed scores x-major, ascending y; MapBest and
// MapBidirectional keep a running maximum per x (and per y) in scratch
// and sum them in x (and y) order. MapInjective fills an n1 × n2 weight
// matrix from the caller's scratch, so greedy and Hungarian matching stay
// allocation-free in the hot loop.
func (op *Operators) neighborScore(n1, n2 int, w []weight, scratch *opScratch) float64 {
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
		for _, e := range w {
			sum += e.s
		}
	case MapBest, MapBidirectional:
		bi := n1
		if op.Mapping == MapBidirectional {
			bi += n2
		}
		best := scratch.floats(bi)
		clear(best)
		bestX, bestY := best[:n1], best[n1:]
		for _, e := range w {
			if e.s > bestX[e.i] {
				bestX[e.i] = e.s
			}
			if len(bestY) > 0 && e.s > bestY[e.j] {
				bestY[e.j] = e.s
			}
		}
		for _, s := range bestX {
			sum += s
		}
		if len(bestY) > 0 {
			sumY := 0.0
			for _, s := range bestY {
				sumY += s
			}
			sum += sumY
		}
	case MapInjective:
		m := scratch.floats(n1 * n2)
		clear(m)
		for _, e := range w {
			m[int(e.i)*n2+int(e.j)] = e.s
		}
		switch {
		case n1 == 1 || n2 == 1:
			// An injective matching with a single-element side is just the
			// best pair.
			for _, s := range m {
				if s > sum {
					sum = s
				}
			}
		case n1 == 2 && n2 == 2:
			// 2×2 matching in closed form: the better of the two diagonals
			// (which is also exact, not just greedy).
			d1 := m[0] + m[3]
			d2 := m[1] + m[2]
			if d2 > d1 {
				d1 = d2
			}
			sum = d1
		case op.ExactMatching:
			_, sum = matching.Hungarian(m, n1, n2, scratch.m)
		default:
			scratch.m.Grow(n1, n2)
			sum, _ = matching.GreedyDense(m, n1, n2, scratch.m)
		}
	}
	return sum / op.omega(n1, n2)
}

// weight is the previous-iteration score s of the cross pair (S1[i],
// S2[j]) of one direction of an Equation 3 update.
type weight struct {
	i, j int32
	s    float64
}

// opScratch holds the per-worker reusable buffers of directionScore and
// neighborScore.
type opScratch struct {
	join    JoinScratch
	w       []weight
	weights []float64 // MapInjective's weight matrix, or the per-x and per-y maxima
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
