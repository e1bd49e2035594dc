package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

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

// requireLabelLayer fails unless every label pair of cs reads exactly
// fn's bits from the table and the eligibility bit L ≥ θ.
func requireLabelLayer(t *testing.T, cs *CandidateSet, fn strsim.Func) {
	t.Helper()
	names1, names2 := cs.g1.LabelNames(), cs.g2.LabelNames()
	for l1, a := range names1 {
		for l2, b := range names2 {
			want := fn(a, b)
			if got := cs.table.Sim(l1, l2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("label table (%q, %q) = %v, L = %v", a, b, got, want)
			}
			if got := cs.labelsEligible(graph.Label(l1), graph.Label(l2)); got != (want >= cs.opts.Theta) {
				t.Fatalf("eligibility (%q, %q) = %v with L = %v at θ = %v", a, b, got, want, cs.opts.Theta)
			}
		}
	}
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
// self table, stored as a triangle). After every step the patched set must
// equal a fresh build in Data(), LabelSim and eligibility, and every label
// pair must read the function's bits and L ≥ θ.
func TestPatchGrowsLabelTable(t *testing.T) {
	for _, threads := range []int{1, 3} {
		for _, fn := range []strsim.Func{asymmetricLabel, strsim.JaroWinkler} {
			rng := rand.New(rand.NewSource(int64(threads)))
			opts := DefaultOptions(exact.BJ)
			opts.Threads = threads
			opts.Theta = 0.6
			opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
			opts.Label = fn

			m := graph.NewMutable()
			growLabels(rng, m, labelVocabulary[:6])
			g := m.Snapshot()
			cs, err := NewCandidateSet(g, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range [][]string{labelVocabulary[6:9], {"person", "city"}, labelVocabulary[9:]} {
				oldL := g.NumLabels()
				touched := growLabels(rng, m, step)
				g = m.Snapshot()
				if _, err := cs.Patch(g, g, touched, touched); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewCandidateSet(g, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameCandidates(t, int64(threads), oldL, cs, fresh)
				for u := 0; u < g.NumNodes(); u++ {
					for v := 0; v < g.NumNodes(); v++ {
						un, vn := graph.NodeID(u), graph.NodeID(v)
						if got, want := cs.LabelSim(un, vn), fresh.LabelSim(un, vn); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("LabelSim(%d,%d) = %v, fresh build %v", u, v, got, want)
						}
						if cs.eligible(un, vn) != fresh.eligible(un, vn) {
							t.Fatalf("eligible(%d,%d) = %v, fresh build %v", u, v, cs.eligible(un, vn), fresh.eligible(un, vn))
						}
					}
				}
				requireLabelLayer(t, cs, fn)
			}
		}
	}
}

// FuzzLabelTable decodes bytes into one or two label vocabularies, builds
// a candidate set over random graphs with one node per label under a
// built-in or an asymmetric custom label function, then grows the
// vocabularies through Patch, and checks after both that every table cell
// has the bits of L(names1[i], names2[j]), every eligibility bit reads
// L ≥ θ, and, for every node pair and direction, the Eq. 6 counts read
// from the row eligibility masks equal referenceEligibleCounts. Self
// vocabularies exercise the triangle, cross ones and the custom function
// the square.
func FuzzLabelTable(f *testing.F) {
	f.Add("person\x00persona\x00city\x00county\x00été\x00世界", false, uint8(150), uint8(0), uint8(3))
	f.Add("a\x00b\x00ab\x00ba\x00abc", true, uint8(128), uint8(1), uint8(2))
	f.Add(strings.Repeat("ab", 33)+"\x00"+strings.Repeat("ab", 32)+"\x00x", false, uint8(200), uint8(6), uint8(1))
	f.Add("kitten\x00sitting\x00mitten\x00smitten", true, uint8(0), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, vocab string, cross bool, theta, mode, split uint8) {
		var names []string
		seen := map[string]bool{}
		for _, name := range strings.Split(vocab, "\x00") {
			if !seen[name] && len(names) < 48 {
				seen[name] = true
				names = append(names, name)
			}
		}
		fn := []strsim.Func{strsim.JaroWinkler, strsim.Indicator, strsim.NormalizedEditDistance, asymmetricLabel}[mode%4]
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
