package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/strsim"
)

// labelVocabulary mixes near and far Jaro–Winkler neighbours, so θ = 0.6
// leaves both eligible and ineligible label pairs.
var labelVocabulary = []string{
	"person", "persona", "personal", "city", "county", "country", "team",
	"teams", "athlete", "athletics", "sport", "sports", "river", "rivers",
	"company", "companion",
}

// growLabels adds one node per label of names to m, wiring each new node
// to a random existing one, and returns the existing nodes it touched.
func growLabels(rng *rand.Rand, m *graph.Mutable, names []string) []graph.NodeID {
	var touched []graph.NodeID
	for _, name := range names {
		n := m.NumNodes()
		u := m.AddNode(name)
		if n == 0 {
			continue
		}
		v := graph.NodeID(rng.Intn(n))
		if _, err := m.AddEdge(u, v); err != nil {
			panic(err)
		}
		touched = append(touched, v)
	}
	return touched
}

// wireRandom adds k edges from every node of m with id from on to random
// nodes and returns the pre-existing nodes it touched.
func wireRandom(rng *rand.Rand, m *graph.Mutable, from, k int) []graph.NodeID {
	var touched []graph.NodeID
	for u := from; u < m.NumNodes(); u++ {
		for i := 0; i < k; i++ {
			v := graph.NodeID(rng.Intn(m.NumNodes()))
			if _, err := m.AddEdge(graph.NodeID(u), v); err != nil {
				panic(err)
			}
			if int(v) < from {
				touched = append(touched, v)
			}
		}
	}
	return touched
}

// requireLabelLayer fails unless cs's label table is fn's at θ over the
// current vocabularies: every eligibility bit, in Eligible and in the row
// words, reads L ≥ θ; every eligible cell reads exactly fn's bits and every
// other 0; and the table stores one value per eligible cell of its layout
// — the triangle l1 ≥ l2 for a self table (one vocabulary under a
// built-in), the square otherwise. Each value is addressed through its
// word's prefix count, so a vocabulary wider than 64 labels checks the
// addressing across word edges.
func requireLabelLayer(t *testing.T, cs *CandidateSet, fn strsim.Func) {
	t.Helper()
	names1, names2 := cs.g1.LabelNames(), cs.g2.LabelNames()
	_, builtin := strsim.WireID(fn)
	triangle := builtin && len(names1) > 0 && len(names1) == len(names2) && &names1[0] == &names2[0]
	theta := cs.opts.Theta
	pairs, stored := 0, 0
	for l1, a := range names1 {
		row := cs.table.Row(l1)
		for l2, b := range names2 {
			l := fn(a, b)
			elig := l >= theta
			if got := cs.table.Eligible(l1, l2); got != elig {
				t.Fatalf("eligibility (%q, %q) = %v with L = %v at θ = %v", a, b, got, l, theta)
			}
			if got := row[l2/64]&(1<<(l2%64)) != 0; got != elig {
				t.Fatalf("row word bit (%q, %q) = %v with L = %v at θ = %v", a, b, got, l, theta)
			}
			want := 0.0
			if elig {
				want = l
				pairs++
				if !triangle || l2 <= l1 {
					stored++
				}
			}
			if got := cs.table.Sim(l1, l2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("label table (%q, %q) = %v, want %v (L = %v, θ = %v)", a, b, got, want, l, theta)
			}
		}
	}
	if got := cs.table.EligiblePairs(); got != pairs {
		t.Fatalf("table counts %d eligible label pairs, want %d", got, pairs)
	}
	if got := cs.table.Stored(); got != stored {
		t.Fatalf("table stores %d values, want the %d eligible cells of its layout (triangle %v)", got, stored, triangle)
	}
	if all := pairs == len(names1)*len(names2); cs.allEligible != all {
		t.Fatalf("allEligible = %v with %d of %d×%d label pairs eligible", cs.allEligible, pairs, len(names1), len(names2))
	}
}

// wideLabels returns n labels built from labelVocabulary, so a table over
// them mixes eligible and ineligible pairs at θ = 0.6 across more than one
// 64-label word per row.
func wideLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", labelVocabulary[i%len(labelVocabulary)], i)
	}
	return out
}

// asymmetricLabel is a custom label function with f(a, b) ≠ f(b, a), so
// its tables must keep the square layout.
func asymmetricLabel(a, b string) float64 {
	if a == b {
		return 1
	}
	return float64(len(a)) / float64(len(a)+2*len(b)+1)
}

// TestPatchGrowsLabelTable adds labels through Patch, under an asymmetric
// custom label function (a square table) and the built-in Jaro–Winkler (a
// self table, stored as a triangle, or a cross one whose g1 vocabulary
// stays fixed while g2's grows), until the vocabulary spans two 64-bit
// words per row. After every step the patched set must equal a fresh build
// in Data(), LabelSim and eligibility, and its label table must be the
// function's at θ (requireLabelLayer).
func TestPatchGrowsLabelTable(t *testing.T) {
	for _, threads := range []int{1, 3} {
		for _, cross := range []bool{false, true} {
			for _, fn := range []strsim.Func{asymmetricLabel, strsim.JaroWinkler} {
				rng := rand.New(rand.NewSource(int64(threads)))
				opts := DefaultOptions(exact.BJ)
				opts.Threads = threads
				opts.Theta = 0.6
				opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
				opts.Label = fn

				m := graph.NewMutable()
				growLabels(rng, m, labelVocabulary[:6])
				g2 := m.Snapshot()
				g1 := g2
				if cross {
					m1 := graph.NewMutable()
					growLabels(rng, m1, labelVocabulary[3:12])
					g1 = m1.Snapshot()
				}
				cs, err := NewCandidateSet(g1, g2, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range [][]string{labelVocabulary[6:9], {"person", "city"}, labelVocabulary[9:], wideLabels(60)} {
					oldL := g2.NumLabels()
					touched := growLabels(rng, m, step)
					g2 = m.Snapshot()
					touched1 := touched
					if cross {
						touched1 = nil
					} else {
						g1 = g2
					}
					if _, err := cs.Patch(g1, g2, touched1, touched); err != nil {
						t.Fatal(err)
					}
					fresh, err := NewCandidateSet(g1, g2, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameCandidates(t, int64(threads), oldL, cs, fresh)
					for u := 0; u < g1.NumNodes(); u++ {
						for v := 0; v < g2.NumNodes(); v++ {
							un, vn := graph.NodeID(u), graph.NodeID(v)
							if got, want := cs.LabelSim(un, vn), fresh.LabelSim(un, vn); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("cross=%v: LabelSim(%d,%d) = %v, fresh build %v", cross, u, v, got, want)
							}
							if cs.Eligible(un, vn) != fresh.Eligible(un, vn) {
								t.Fatalf("cross=%v: Eligible(%d,%d) = %v, fresh build %v", cross, u, v, cs.Eligible(un, vn), fresh.Eligible(un, vn))
							}
						}
					}
					requireLabelLayer(t, cs, fn)
				}
			}
		}
	}
}

// nanLabel is a custom label function that is NaN on pairs of distinct
// labels of equal length and Jaro–Winkler elsewhere, so its tables keep
// the square and hold cells that are ineligible at every θ.
func nanLabel(a, b string) float64 {
	if a != b && len(a) == len(b) {
		return math.NaN()
	}
	return strsim.JaroWinkler(a, b)
}

// negativeLabel is nanLabel with −0.5 in place of NaN: a custom label
// function outside [0, 1], which fails L ≥ 0.
func negativeLabel(a, b string) float64 {
	if a != b && len(a) == len(b) {
		return -0.5
	}
	return strsim.JaroWinkler(a, b)
}

// TestThetaZeroIneligibleStores runs θ = 0 under custom label functions
// that are NaN or negative on the pairs of distinct RandomGraph labels,
// so those label pairs fail L ≥ θ and only the pairs of equal labels are
// candidates. The candidate rows within Options.DenseCapPairs must
// enumerate the same candidates as past it and give every pair the same
// score bit for bit, rather than iterate every pair as the all-pairs store
// does, and equal the pairwise sweep (pairwiseSweep).
func TestThetaZeroIneligibleStores(t *testing.T) {
	g := dataset.RandomGraph(3, 30, 90, 6)
	for _, fn := range []strsim.Func{nanLabel, negativeLabel} {
		opts := DefaultOptions(exact.BJ).WithPinnedIterations(6)
		opts.Threads = 1
		opts.Label = fn
		dense, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DenseCapPairs = 1
		sparse, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dense.CandidateCount != sparse.CandidateCount || dense.cs.allPairs {
			t.Fatalf("%d candidates (all pairs %v) within the cap, %d past it",
				dense.CandidateCount, dense.cs.allPairs, sparse.CandidateCount)
		}
		requirePairwise(t, "within the cap", dense)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				un, vn := graph.NodeID(u), graph.NodeID(v)
				if d, s := dense.Score(un, vn), sparse.Score(un, vn); math.Float64bits(d) != math.Float64bits(s) {
					t.Fatalf("(%d,%d): dense %v, sparse %v", u, v, d, s)
				}
			}
		}
	}
}

// TestPatchLeavesAllPairsOnIneligibleLabel grows, at θ = 0, a vocabulary
// on which nanLabel and negativeLabel are in [0, 1] everywhere (labels of
// distinct lengths) by a label of an existing label's length, whose pair
// with it fails L ≥ 0. The all-pairs store must give way to an
// enumeration equal to a fresh build's; the old scores must carry over
// through RemapScores, and a ComputeOn on the patched set must equal a
// fresh Compute bit for bit.
func TestPatchLeavesAllPairsOnIneligibleLabel(t *testing.T) {
	for _, fn := range []strsim.Func{nanLabel, negativeLabel} {
		opts := DefaultOptions(exact.BJ).WithPinnedIterations(6)
		opts.Threads = 1
		opts.Label = fn
		rng := rand.New(rand.NewSource(5))
		m := graph.NewMutable()
		growLabels(rng, m, []string{"a", "bb", "ccc", "dddd", "a", "bb", "ccc"})
		wireRandom(rng, m, 0, 2)
		g := m.Snapshot()
		cs, err := NewCandidateSet(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !cs.allPairs {
			t.Fatal("the starting vocabulary must be all eligible")
		}
		old, err := ComputeOn(cs)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		before := matrixOf(old, n, n) // a Patch invalidates old

		touched := growLabels(rng, m, []string{"ee", "ccc"})
		touched = append(touched, wireRandom(rng, m, n, 2)...)
		g2 := m.Snapshot()
		d, err := cs.Patch(g2, g2, touched, touched)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCandidateSet(g2, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCandidates(t, 0, 1, cs, fresh)
		if cs.allPairs {
			t.Fatal("an ineligible label pair must end the all-pairs store")
		}
		remapped := cs.RemapScores(old.scores, d)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				un, vn := graph.NodeID(u), graph.NodeID(v)
				if got, want := remapped[cs.Position(un, vn)], before.Scores[u*n+v]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("(%d,%d): remapped score %v, before the patch %v", u, v, got, want)
				}
			}
		}
		got, err := ComputeOn(cs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compute(g2, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g2.NumNodes(); u++ {
			for v := 0; v < g2.NumNodes(); v++ {
				un, vn := graph.NodeID(u), graph.NodeID(v)
				if a, b := got.Score(un, vn), want.Score(un, vn); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("(%d,%d): patched %v, fresh %v", u, v, a, b)
				}
			}
		}
	}
}

// FuzzLabelTable decodes bytes into one or two label vocabularies, builds
// a candidate set over random graphs with one node per label under a
// built-in, an asymmetric custom label function or (mode ≥ 128) the
// NaN-valued nanLabel, then grows the vocabularies through Patch, and
// checks after both that the label table is the function's at θ
// (requireLabelLayer) and, for every node pair and direction, the Eq. 6
// counts read from the row eligibility masks equal
// referenceEligibleCounts. Self vocabularies under a built-in exercise the
// triangle, the others the square; vocabularies of up to 96 labels cross
// the 64-label word edge of the matrix rows.
func FuzzLabelTable(f *testing.F) {
	f.Add("person\x00persona\x00city\x00county\x00été\x00世界", false, uint8(150), uint8(0), uint8(3))
	f.Add("a\x00b\x00ab\x00ba\x00abc", true, uint8(128), uint8(1), uint8(2))
	f.Add(strings.Repeat("ab", 33)+"\x00"+strings.Repeat("ab", 32)+"\x00x", false, uint8(200), uint8(6), uint8(1))
	f.Add("kitten\x00sitting\x00mitten\x00smitten", true, uint8(0), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, vocab string, cross bool, theta, mode, split uint8) {
		var names []string
		seen := map[string]bool{}
		for _, name := range strings.Split(vocab, "\x00") {
			if !seen[name] && len(names) < 96 {
				seen[name] = true
				names = append(names, name)
			}
		}
		fn := []strsim.Func{strsim.JaroWinkler, strsim.Indicator, strsim.NormalizedEditDistance, asymmetricLabel}[mode%4]
		if mode >= 128 {
			fn = nanLabel
		}
		opts := DefaultOptions(exact.S)
		opts.Threads = 1 + int(mode/4)%3
		opts.Theta = float64(theta) / 255
		opts.Label = fn

		names2 := names
		if cross {
			names2 = make([]string, 0, len(names))
			for i := len(names) - 1; i >= len(names)/3; i-- {
				names2 = append(names2, names[i])
			}
		}
		k1 := min(int(split), len(names))
		k2 := min(int(split), len(names2))
		rng := rand.New(rand.NewSource(int64(split)))
		m1 := graph.NewMutable()
		growLabels(rng, m1, names[:k1])
		wireRandom(rng, m1, 0, 2)
		m2 := m1
		if cross {
			m2 = graph.NewMutable()
			growLabels(rng, m2, names2[:k2])
			wireRandom(rng, m2, 0, 2)
		}
		snap := func() (*graph.Graph, *graph.Graph) {
			g1 := m1.Snapshot()
			if !cross {
				return g1, g1
			}
			return g1, m2.Snapshot()
		}
		g1, g2 := snap()
		cs, err := NewCandidateSet(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireLabelLayer(t, cs, fn)
		var m rowMasks // kept across the Patch, as pooled masks are
		requireMaskedCounts(t, cs, &m, "build")

		n1, n2 := m1.NumNodes(), m2.NumNodes()
		touched1 := append(growLabels(rng, m1, names[k1:]), wireRandom(rng, m1, n1, 2)...)
		touched2 := touched1
		if cross {
			touched2 = append(growLabels(rng, m2, names2[k2:]), wireRandom(rng, m2, n2, 2)...)
		}
		g1, g2 = snap()
		if _, err := cs.Patch(g1, g2, touched1, touched2); err != nil {
			t.Fatal(err)
		}
		requireLabelLayer(t, cs, fn)
		requireMaskedCounts(t, cs, &m, "patched")
	})
}
