package core

import "fsim/internal/graph"

// upperBound evaluates Eq. 6: FSim̄(u,v) = λ⁺ + λ⁻ + (1−w⁺−w⁻)·L(u,v),
// where λˢ = wˢ·|Mχ(Nˢ(u), Nˢ(v))| / Ωχ(Nˢ(u), Nˢ(v)). |Mχ| is bounded
// from above using label-eligibility counts (how many neighbors on each
// side have at least one eligible partner), read from row u's eligibility
// masks m in O(|Nˢ(v)|) per direction; since scores never exceed 1, the
// bound dominates every reachable score of the pair. When every label
// pair is eligible the counts are the list sizes, and no mask is built.
func (cs *CandidateSet) upperBound(m *rowMasks, u, v graph.NodeID, labelSim float64) float64 {
	o := &cs.opts
	out, in := &m.out, &m.in
	if !cs.maskRow(m, u) {
		out, in = nil, nil
	}
	b := (1 - o.WPlus - o.WMinus) * labelSim
	if o.WPlus > 0 {
		b += o.WPlus * cs.directionBound(out, len(cs.g1.Out(u)), cs.g2.Out(v))
	}
	if o.WMinus > 0 {
		b += o.WMinus * cs.directionBound(in, len(cs.g1.In(u)), cs.g2.In(v))
	}
	return b
}

// directionBound bounds the neighbor-score of one direction, between the
// n1 neighbours that mask m describes and s2, by |Mχ|/Ωχ ≤ 1, honoring
// the empty-set conventions. A nil m counts every neighbour eligible.
func (cs *CandidateSet) directionBound(m *labelMask, n1 int, s2 []graph.NodeID) float64 {
	n2 := len(s2)
	switch {
	case n1 == 0 && n2 == 0:
		return cs.ops.EmptyBoth
	case n1 == 0:
		return cs.ops.EmptyS1
	case n2 == 0:
		return cs.ops.EmptyS2
	}
	e1, e2 := n1, n2
	if m != nil {
		e1, e2 = m.eligibleCounts(cs.labels2, s2)
	}
	bound := cs.ops.mapBound(n1, n2, e1, e2) / cs.ops.omega(n1, n2)
	if bound > 1 {
		bound = 1
	}
	return bound
}
