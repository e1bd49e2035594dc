package query

import (
	"math"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// propertyOptions builds the per-seed configuration the equivalence
// property runs under, cycling through the four variants and both stores
// and exercising the label-constraint and pruning candidate shapes.
func propertyOptions(seed int64) (core.Options, exact.Variant) {
	variant := exact.Variants[seed%4]
	opts := core.DefaultOptions(variant)
	opts.Threads = 1
	if seed%3 == 1 {
		opts.Theta = 0.5
	}
	if seed%5 == 2 {
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.4}
	}
	if seed%2 == 1 {
		opts.DenseCapPairs = 1 // force the hash-map store
	}
	if seed%7 == 3 {
		// DeltaMode is off, so Compute ignores DeltaEps — queries must too
		// (regression: the localized worklist once honored it).
		opts.DeltaEps = 0.01
	}
	return opts, variant
}

func propertyGraphs(seed int64) (*graph.Graph, *graph.Graph) {
	n1 := 10 + int(seed%7)
	n2 := 12 + int(seed%5)
	return dataset.RandomGraph(seed*100+1, n1, 3*n1, 3),
		dataset.RandomGraph(seed*100+2, n2, 3*n2, 3)
}

// TestBruteForceEquivalenceProperty is the query subsystem's correctness
// property over 50 seeded random graph pairs, all four variants and both
// candidate stores. Under a pinned iteration budget (Epsilon unreachable,
// so the batch engine and the localized query run the same number of
// rounds) the localized trajectory must reproduce Compute's scores bit
// for bit, on either store:
//
//   - Index.Query(u, v) equals Result.Score(u, v) for every pair,
//     candidate or not (non-candidates return the §3.4 stand-in).
//   - Index.TopK(u, k) equals brute-force Compute + sort: same candidate
//     identities, same scores, same tie-breaking.
//
// Damping and exact (Hungarian) matching join the inputs on a fraction of
// seeds, on both stores: the localized worklist must re-activate a damped
// pair on its own change, and the exact injective mapping must score
// identically in both executors. They stay out of the converged property,
// whose tolerance assumes undamped contraction.
func TestBruteForceEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g1, g2 := propertyGraphs(seed)
		opts, variant := propertyOptions(seed)
		if seed%5 == 4 {
			opts.Damping = 0.3
		}
		if seed%6 == 0 || seed%6 == 3 {
			// An injective variant's operators, whatever the seed's
			// variant: only MapInjective consults ExactMatching.
			variant = exact.DP
			if seed%12 >= 6 {
				variant = exact.BJ
			}
			ops := core.OperatorsFor(variant)
			ops.ExactMatching = true
			opts.Operators = &ops
		}
		opts.Epsilon = 1e-300 // unreachable: both sides run exactly MaxIters rounds
		opts.RelativeEps = false
		opts.MaxIters = 20

		res, err := core.Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Single-pair queries over a deterministic third of the universe
		// (every pair is still covered across the 50 seeds).
		for u := 0; u < g1.NumNodes(); u++ {
			for v := 0; v < g2.NumNodes(); v++ {
				if (u+v+int(seed))%3 != 0 {
					continue
				}
				un, vn := graph.NodeID(u), graph.NodeID(v)
				got, err := ix.Query(un, vn)
				if err != nil {
					t.Fatal(err)
				}
				want := res.Score(un, vn)
				if got != want {
					t.Fatalf("seed %d %v: Query(%d,%d) = %v, Compute = %v",
						seed, variant, u, v, got, want)
				}
			}
		}

		// Top-k for half the query nodes at several k.
		for u := int(seed) % 2; u < g1.NumNodes(); u += 2 {
			un := graph.NodeID(u)
			for _, k := range []int{1, 3, g2.NumNodes() + 5} {
				got, err := ix.TopK(un, k)
				if err != nil {
					t.Fatal(err)
				}
				want := res.TopK(un, k)
				if len(got) != len(want) {
					t.Fatalf("seed %d %v: TopK(%d,%d) returned %d entries, brute force %d",
						seed, variant, u, k, len(got), len(want))
				}
				for i := range want {
					if got[i].Score != want[i].Score {
						t.Fatalf("seed %d %v: TopK(%d,%d)[%d] score %v, brute force %v",
							seed, variant, u, k, i, got[i].Score, want[i].Score)
					}
					if got[i].Index != want[i].Index {
						t.Fatalf("seed %d %v: TopK(%d,%d)[%d] = node %d, brute force node %d",
							seed, variant, u, k, i, got[i].Index, want[i].Index)
					}
				}
			}
		}
	}
}

// TestDampedSelfReactivation runs a query whose closure goes quiet except
// for damped pairs that read nothing. Two hubs share ten sinks labelled
// "a"; h1 also points at a "b" sink and h2 at a "c" sink. Under w⁻ = 0 the
// sink pairs read nothing: the a–a pairs sit at 1, while the mixed-label
// ones move only on their own previous score, and are few enough that the
// worklist propagates precisely — where the property's random graphs never
// get. The b–c pair is the one left for the bijective matching of
// FSim(h1, h2), so a frozen mixed pair would show in the query's score.
func TestDampedSelfReactivation(t *testing.T) {
	b := graph.NewBuilder()
	h1, h2 := b.AddNode("hub"), b.AddNode("hub")
	for i := 0; i < 10; i++ {
		a := b.AddNode("a")
		b.MustAddEdge(h1, a)
		b.MustAddEdge(h2, a)
	}
	b.MustAddEdge(h1, b.AddNode("b"))
	b.MustAddEdge(h2, b.AddNode("c"))
	g := b.Build()
	opts := core.DefaultOptions(exact.BJ).WithPinnedIterations(30)
	opts.WPlus, opts.WMinus = 0.8, 0
	opts.Damping = 0.5
	opts.Threads = 1
	res, err := core.Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ix.QueryStats(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Score(h1, h2); got != want {
		t.Fatalf("Query(h1, h2) = %v, Compute = %v", got, want)
	}
	if st.LocalPairs != 1+11*11 {
		t.Fatalf("closure has %d pairs, want the hub pair and 121 sink pairs", st.LocalPairs)
	}
}

// TestConvergedEquivalenceProperty checks the adaptive-stopping contract:
// with a convergence threshold ε, the localized query may stop as soon as
// its own frontier is quiet, which can be a few rounds before the batch
// engine's global criterion fires. Both sides then sit within the
// contraction tail of the common fixed point, so scores agree within
// ε·w/(1−w) of each other (Corollary 1's geometric argument).
func TestConvergedEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g1, g2 := propertyGraphs(seed)
		opts, variant := propertyOptions(seed)
		opts.Epsilon = 1e-8
		opts.RelativeEps = false

		res, err := core.Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := opts.WPlus + opts.WMinus
		tol := opts.Epsilon*w/(1-w) + 1e-12

		for u := 0; u < g1.NumNodes(); u++ {
			un := graph.NodeID(u)
			got, err := ix.TopK(un, 5)
			if err != nil {
				t.Fatal(err)
			}
			want := res.TopK(un, 5)
			if len(got) != len(want) {
				t.Fatalf("seed %d %v: TopK(%d,5) returned %d entries, brute force %d",
					seed, variant, u, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > tol {
					t.Fatalf("seed %d %v: TopK(%d,5)[%d] score %v, brute force %v (tol %v)",
						seed, variant, u, i, got[i].Score, want[i].Score, tol)
				}
			}
		}
	}
}

// TestQueryLocality asserts the subsystem's reason to exist: on a graph
// with disconnected regions, a query touches only its own region's pairs,
// not the full candidate map.
func TestQueryLocality(t *testing.T) {
	// Two disjoint 10-node chains ⇒ a pair's dependency closure never
	// leaves (component of u) × V2.
	b := graph.NewBuilder()
	var prev [2]graph.NodeID
	for c := 0; c < 2; c++ {
		prev[c] = b.AddNode("n")
		for i := 1; i < 10; i++ {
			n := b.AddNode("n")
			b.MustAddEdge(prev[c], n)
			prev[c] = n
		}
	}
	g := b.Build()

	opts := core.DefaultOptions(exact.BJ)
	opts.Threads = 1
	ix, err := New(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.QueryStats(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := ix.Candidates().NumCandidates()
	if st.LocalPairs >= all {
		t.Fatalf("localized query iterated the full candidate map: %d of %d", st.LocalPairs, all)
	}
	if st.LocalPairs == 0 {
		t.Fatal("closure empty")
	}
}

// TestStatePooling checks that pooled query states are fully reset between
// queries: interleaved queries from one goroutine (thus one pooled state)
// must reproduce fresh-index results.
func TestStatePooling(t *testing.T) {
	g1, g2 := propertyGraphs(7)
	opts, _ := propertyOptions(7)
	ix, err := New(g1, g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(u, v graph.NodeID) float64 {
		ix2, err := New(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ix2.Query(u, v)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for round := 0; round < 3; round++ {
		for u := 0; u < g1.NumNodes(); u++ {
			un := graph.NodeID(u)
			vn := graph.NodeID((u*3 + round) % g2.NumNodes())
			got, err := ix.Query(un, vn)
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh(un, vn); got != want {
				t.Fatalf("round %d: pooled state leaked: Query(%d,%d) = %v, fresh index %v",
					round, un, vn, got, want)
			}
			if _, err := ix.TopK(un, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNewFromCandidatesCopiesNoStandIns pins that an index reads the §3.4
// stand-ins from its candidate component instead of copying them: building
// one allocates the same whether the component retains no bounds or
// thousands, on both stores.
func TestNewFromCandidatesCopiesNoStandIns(t *testing.T) {
	g := dataset.RandomGraph(3, 60, 120, 2)
	for _, store := range []struct {
		name     string
		capPairs int
	}{{"dense", 0}, {"sparse", 1}} {
		build := func(beta float64) (allocs float64, pruned int) {
			opts := core.DefaultOptions(exact.S)
			opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: beta}
			opts.DenseCapPairs = store.capPairs
			cs, err := core.NewCandidateSet(g, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() { NewFromCandidates(cs) }), cs.PrunedCount()
		}
		noneAllocs, none := build(0.5)
		manyAllocs, many := build(0.95)
		if none != 0 || many < 1000 {
			t.Fatalf("%s: fixture prunes %d and %d pairs, want 0 and thousands", store.name, none, many)
		}
		if manyAllocs != noneAllocs {
			t.Errorf("%s: NewFromCandidates allocates %v times over %d stand-ins but %v over none: it copies them",
				store.name, manyAllocs, many, noneAllocs)
		}
	}
}
