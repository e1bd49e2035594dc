package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/matching"
	"fsim/internal/strsim"
)

// referenceEligibleCounts is the pairwise form of the Eq. 6 counts: how
// many nodes of s1 (resp. s2) have at least one label-eligible partner on
// the other side, from |s1|·|s2| reads of the eligibility bit matrix. The
// row eligibility masks must reproduce it.
func referenceEligibleCounts(cs *CandidateSet, s1, s2 []graph.NodeID) (int, int) {
	e1 := 0
	for _, x := range s1 {
		for _, y := range s2 {
			if cs.Eligible(x, y) {
				e1++
				break
			}
		}
	}
	e2 := 0
	for _, y := range s2 {
		for _, x := range s1 {
			if cs.Eligible(x, y) {
				e2++
				break
			}
		}
	}
	return e1, e2
}

// referenceNeighborScore is Equation 2 over every pair of s1 × s2, x-major,
// with no eligibility mask: the store reads a label-ineligible pair as 0.
// The masked neighborScore must reproduce it bit for bit.
func referenceNeighborScore(op *Operators, s1, s2 []graph.NodeID, lookup func(x, y graph.NodeID) float64, m *matching.Scratch) float64 {
	n1, n2 := len(s1), len(s2)
	switch {
	case n1 == 0 && n2 == 0:
		return op.EmptyBoth
	case n1 == 0:
		return op.EmptyS1
	case n2 == 0:
		return op.EmptyS2
	}
	bestSum := func(s1, s2 []graph.NodeID, lookup func(x, y graph.NodeID) float64) float64 {
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
		return sum
	}
	var sum float64
	switch op.Mapping {
	case MapBest:
		sum = bestSum(s1, s2, lookup)
	case MapBidirectional:
		sum = bestSum(s1, s2, lookup) +
			bestSum(s2, s1, func(y, x graph.NodeID) float64 { return lookup(x, y) })
	case MapProduct:
		for _, x := range s1 {
			for _, y := range s2 {
				sum += lookup(x, y)
			}
		}
	case MapInjective:
		switch {
		case n1 == 1 || n2 == 1:
			for _, x := range s1 {
				for _, y := range s2 {
					if s := lookup(x, y); s > sum {
						sum = s
					}
				}
			}
		case n1 == 2 && n2 == 2:
			d1 := lookup(s1[0], s2[0]) + lookup(s1[1], s2[1])
			d2 := lookup(s1[0], s2[1]) + lookup(s1[1], s2[0])
			sum = math.Max(d1, d2)
		default:
			w := make([]float64, n1*n2)
			for i, x := range s1 {
				for j, y := range s2 {
					w[i*n2+j] = lookup(x, y)
				}
			}
			if op.ExactMatching {
				_, sum = matching.Hungarian(w, n1, n2, m)
			} else {
				m.Grow(n1, n2)
				sum, _ = matching.GreedyDense(w, n1, n2, m)
			}
		}
	}
	return sum / op.omega(n1, n2)
}

// weightsOf lists the weights of s1 × s2 under lookup in (i, j) order,
// every pair when all is set and otherwise only those that read above 0,
// as the candidate store's merge lists only the pairs it holds a score
// for.
func weightsOf(s1, s2 []graph.NodeID, lookup func(x, y graph.NodeID) float64, all bool) []weight {
	var w []weight
	for i, x := range s1 {
		for j, y := range s2 {
			if s := lookup(x, y); all || s > 0 {
				w = append(w, weight{int32(i), int32(j), s})
			}
		}
	}
	return w
}

// maskedDirection is one direction of a pair (u, v): the neighbour lists
// and row u's mask of the first.
type maskedDirection struct {
	mask   *labelMask
	s1, s2 []graph.NodeID
}

// directions returns both directions of (u, v) with their masks in m.
func directions(cs *CandidateSet, m *rowMasks, u, v graph.NodeID) []maskedDirection {
	return []maskedDirection{{&m.out, cs.g1.Out(u), cs.g2.Out(v)}, {&m.in, cs.g1.In(u), cs.g2.In(v)}}
}

// requireMaskedCounts checks, for every pair of cs and both directions
// with two non-empty neighbour lists, that the masked Eq. 6 counts of
// row masks m, rebuilt for each row, equal referenceEligibleCounts, and
// that the Eq. 6 bound of a pair is the same bits whether its row's masks
// are built for it alone or shared by the row. m may come from another
// candidate set, as masks pooled across a Patch do.
func requireMaskedCounts(t *testing.T, cs *CandidateSet, m *rowMasks, label string) {
	t.Helper()
	vs := make([]graph.NodeID, cs.n2)
	for v := range vs {
		vs[v] = graph.NodeID(v)
	}
	for u := 0; u < cs.n1; u++ {
		un := graph.NodeID(u)
		row := cs.RowBounds(un, vs, nil)
		// Built directly, as maskRow builds only what the operators read.
		m.out.build(cs, cs.g1.Out(un))
		m.in.build(cs, cs.g1.In(un))
		for _, v := range vs {
			for _, d := range directions(cs, m, un, v) {
				if len(d.s1) == 0 || len(d.s2) == 0 {
					continue // the empty-set conventions decide; no count is read
				}
				e1, e2 := d.mask.eligibleCounts(cs.labels2, d.s2)
				r1, r2 := referenceEligibleCounts(cs, d.s1, d.s2)
				if e1 != r1 || e2 != r2 {
					t.Fatalf("%s: (%d,%d) |N(u)|=%d |N(v)|=%d: masked counts (%d,%d), pairwise (%d,%d)",
						label, u, v, len(d.s1), len(d.s2), e1, e2, r1, r2)
				}
			}
			if b := cs.RowBounds(un, vs[v:v+1], nil)[0]; math.Float64bits(b) != math.Float64bits(row[v]) {
				t.Fatalf("%s: bound of (%d,%d) = %v alone, %v with its row", label, u, v, b, row[v])
			}
		}
	}
}

// requireMaskedScores checks that neighborScore of every pair and weighted
// direction of cs, over the weights of the pairs that read above 0 and
// over those of every pair, equals referenceNeighborScore bit for bit,
// under a lookup that reads pseudo-random positive scores for eligible
// pairs and 0 for ineligible ones, as every store does. Ties are frequent
// (scores come from eight levels), so greedy tie-breaking is exercised.
func requireMaskedScores(t *testing.T, cs *CandidateSet, label string) {
	t.Helper()
	lookup := func(x, y graph.NodeID) float64 {
		if cs.opts.Theta > 0 && !cs.Eligible(x, y) {
			return 0
		}
		return float64(1+(int(x)*7919+int(y)*104729)%8) / 8
	}
	scratch := newOpScratch()
	ref := matching.NewScratch(8, 8)
	weights := []float64{cs.opts.WPlus, cs.opts.WMinus}
	var m rowMasks
	for u := 0; u < cs.n1; u++ {
		un := graph.NodeID(u)
		for v := 0; v < cs.n2; v++ {
			for k, d := range directions(cs, &m, un, graph.NodeID(v)) {
				if weights[k] == 0 {
					continue
				}
				want := referenceNeighborScore(cs.ops, d.s1, d.s2, lookup, ref)
				for _, all := range []bool{false, true} {
					got := cs.ops.neighborScore(len(d.s1), len(d.s2), weightsOf(d.s1, d.s2, lookup, all), scratch)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: (%d,%d) |S1|=%d |S2|=%d every pair listed %v: %v, reference %v",
							label, u, v, len(d.s1), len(d.s2), all, got, want)
					}
				}
			}
		}
	}
}

// hubGraph is a random graph over labelVocabulary with three hubs of
// out- and in-degree above 64, 128 and 150, so the row masks of the hubs
// span two and three words, and with 2×2 and 1×n neighbourhoods among
// the rest.
func hubGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(labelVocabulary[rng.Intn(len(labelVocabulary))])
	}
	for h, deg := range []int{70, 130, 150} {
		for _, v := range rng.Perm(n)[:deg] {
			b.MustAddEdge(graph.NodeID(h), graph.NodeID(v))
			b.MustAddEdge(graph.NodeID(v), graph.NodeID((h+1)%3))
		}
	}
	for i := 0; i < 2*n; i++ {
		b.MustAddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// TestRowMaskEquivalence pins the row eligibility masks against the
// pairwise definitions they replace: for every mapping (exact matching
// included), at θ ∈ {0.4, 0.6, 0.8} and at θ = 0, on a graph whose hubs
// have more than 64 and more than 128 neighbours, the masked Eq. 6 counts
// equal referenceEligibleCounts, and neighborScore over the weights of the
// pairs that read above 0 equals referenceNeighborScore over every pair
// bit for bit, before and after a Patch that grows the label vocabulary
// and the hubs.
func TestRowMaskEquivalence(t *testing.T) {
	const n = 170
	mappings := []struct {
		name string
		opts Options
	}{
		{"s", DefaultOptions(exact.S)},
		{"dp", DefaultOptions(exact.DP)},
		{"b", DefaultOptions(exact.B)},
		{"bj", DefaultOptions(exact.BJ)},
		{"bj-exact", func() Options {
			o := DefaultOptions(exact.BJ)
			ops := OperatorsFor(exact.BJ)
			ops.ExactMatching = true
			o.Operators = &ops
			return o
		}()},
		{"rolesim", RoleSimOptions(0.1)},
		{"simrank", SimRankOptions(0.8)},
	}
	// One set of masks serves every set in turn: it goes from full masks
	// (θ = 0) to filtering ones and through each Patch's vocabulary growth
	// with the labels it last set still to clear.
	var shared rowMasks
	for _, theta := range []float64{0, 0.4, 0.6, 0.8} {
		for _, mp := range mappings {
			t.Run(fmt.Sprintf("theta=%v/%s", theta, mp.name), func(t *testing.T) {
				g := hubGraph(int64(100*theta)+1, n)
				opts := mp.opts
				opts.Label = strsim.JaroWinkler // RoleSim and SimRank ignore labels
				opts.Theta = theta
				opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
				cs, err := NewCandidateSet(g, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if theta > 0 && cs.allEligible {
					t.Fatal("every label pair is eligible: the masks would filter nothing")
				}
				requireMaskedCounts(t, cs, &shared, "build")
				requireMaskedScores(t, cs, "build")

				// Grow the vocabulary by two labels (one near, one far
				// from the rest) and wire the new nodes to the hubs.
				mg := graph.MutableOf(g)
				for i, name := range []string{"personage", "zzz"} {
					x := mg.AddNode(name)
					for h := 0; h < 3; h++ {
						if _, err := mg.AddEdge(graph.NodeID(h), x); err != nil {
							t.Fatal(err)
						}
						if _, err := mg.AddEdge(x, graph.NodeID(3+i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				touched := []graph.NodeID{0, 1, 2, 3, 4}
				g2 := mg.Snapshot()
				if g2.NumLabels() <= g.NumLabels() {
					t.Fatal("the patch must grow the label vocabulary")
				}
				if _, err := cs.Patch(g2, g2, touched, touched); err != nil {
					t.Fatal(err)
				}
				requireMaskedCounts(t, cs, &shared, "patched")
				requireMaskedScores(t, cs, "patched")
			})
		}
	}
}
