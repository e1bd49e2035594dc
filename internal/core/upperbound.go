package core

import "fsim/internal/graph"

// upperBound evaluates Eq. 6: FSim̄(u,v) = λ⁺ + λ⁻ + (1−w⁺−w⁻)·L(u,v),
// where λˢ = wˢ·|Mχ(Nˢ(u), Nˢ(v))| / Ωχ(Nˢ(u), Nˢ(v)). |Mχ| is bounded
// from above using label-eligibility counts (how many neighbors on each
// side have at least one eligible partner); since scores never exceed 1,
// the bound dominates every reachable score of the pair.
func (e *CandidateSet) upperBound(u, v graph.NodeID, labelSim float64) float64 {
	o := &e.opts
	b := (1 - o.WPlus - o.WMinus) * labelSim
	if o.WPlus > 0 {
		b += o.WPlus * e.directionBound(e.g1.Out(u), e.g2.Out(v))
	}
	if o.WMinus > 0 {
		b += o.WMinus * e.directionBound(e.g1.In(u), e.g2.In(v))
	}
	return b
}

// directionBound bounds the neighbor-score of one direction by
// |Mχ|/Ωχ ≤ 1, honoring the empty-set conventions.
func (e *CandidateSet) directionBound(s1, s2 []graph.NodeID) float64 {
	n1, n2 := len(s1), len(s2)
	switch {
	case n1 == 0 && n2 == 0:
		return e.ops.EmptyBoth
	case n1 == 0:
		return e.ops.EmptyS1
	case n2 == 0:
		return e.ops.EmptyS2
	}
	e1, e2 := e.eligibleCounts(s1, s2)
	m := e.ops.mapBound(n1, n2, e1, e2)
	bound := m / e.ops.omega(n1, n2)
	if bound > 1 {
		bound = 1
	}
	return bound
}

// eligibleCounts returns how many nodes of s1 (resp. s2) have at least one
// label-eligible partner on the other side, from the eligibility bit
// matrix. With θ = 0 everything is eligible, so the scan is skipped.
func (e *CandidateSet) eligibleCounts(s1, s2 []graph.NodeID) (int, int) {
	if e.opts.Theta == 0 {
		return len(s1), len(s2)
	}
	e1 := 0
	for _, x := range s1 {
		for _, y := range s2 {
			if e.eligible(x, y) {
				e1++
				break
			}
		}
	}
	e2 := 0
	for _, y := range s2 {
		for _, x := range s1 {
			if e.eligible(x, y) {
				e2++
				break
			}
		}
	}
	return e1, e2
}
