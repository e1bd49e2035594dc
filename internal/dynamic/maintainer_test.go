package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/query"
	"fsim/internal/stats"
)

// propertyOptions cycles through the four variants, both candidate stores
// and the candidate-shaping options, mirroring the query subsystem's
// property configuration. The iteration budget is pinned (Epsilon
// unreachable), so the maintainer, a fresh Compute and a fresh Index all
// run the same number of rounds and exactness is bitwise.
func propertyOptions(seed int64) (core.Options, exact.Variant) {
	variant := exact.Variants[seed%4]
	opts := core.DefaultOptions(variant)
	opts.Threads = 1
	opts.Epsilon = 1e-300
	opts.RelativeEps = false
	opts.MaxIters = 12
	if seed%3 == 1 {
		opts.Theta = 0.5
	}
	if seed%5 == 2 {
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.4}
	}
	if seed%5 == 4 {
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0, Beta: 0.5}
	}
	if seed%2 == 1 {
		opts.DenseCapPairs = 1 // force the hash-map store
	}
	if seed%7 == 3 {
		opts.DeltaMode = true // fallback recomputes must stay bit-exact too
	}
	return opts, variant
}

// randomBatch draws 1-4 random changes: edge insertions and deletions with
// an occasional node insertion.
func randomBatch(rng *rand.Rand, n int) []graph.Change {
	batch := make([]graph.Change, 0, 4)
	for i, k := 0, 1+rng.Intn(4); i < k; i++ {
		switch rng.Intn(12) {
		case 0:
			labels := []string{"a", "b", "c", "zed"}
			batch = append(batch, graph.Change{Op: graph.OpAddNode, Label: labels[rng.Intn(len(labels))]})
			n++
		case 1, 2, 3, 4:
			batch = append(batch, graph.Change{Op: graph.OpRemoveEdge,
				U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))})
		default:
			batch = append(batch, graph.Change{Op: graph.OpAddEdge,
				U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))})
		}
	}
	return batch
}

// TestIncrementalEquivalenceProperty is the dynamic subsystem's
// correctness property over 50 seeded random update streams (insert/delete
// mixes with occasional node insertions), all four variants and both
// candidate stores, at DeltaEps = 0 semantics (exact propagation): after
// every applied batch,
//
//   - Maintainer.Score equals a fresh core.Compute on the mutated graph
//     for every pair of the universe, bit for bit on either score store;
//   - Maintainer.TopK and the live Index.TopK equal the fresh Compute's
//     ranking (same candidates, same scores, same tie-breaking).
func TestIncrementalEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed*997 + 3))
		n := 10 + int(seed%7)
		g := dataset.RandomGraph(seed*100+1, n, 3*n, 3)
		opts, variant := propertyOptions(seed)

		mt, err := New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			batch := randomBatch(rng, mt.Graph().NumNodes())
			if _, err := mt.Apply(batch); err != nil {
				t.Fatalf("seed %d step %d: Apply: %v", seed, step, err)
			}
			cur := mt.Graph()
			fresh, err := core.Compute(cur, cur, opts)
			if err != nil {
				t.Fatal(err)
			}
			nn := cur.NumNodes()
			for u := 0; u < nn; u++ {
				for v := 0; v < nn; v++ {
					un, vn := graph.NodeID(u), graph.NodeID(v)
					got, err := mt.Score(un, vn)
					if err != nil {
						t.Fatal(err)
					}
					want := fresh.Score(un, vn)
					if got != want {
						t.Fatalf("seed %d %v step %d: Score(%d,%d) = %v, fresh Compute %v",
							seed, variant, step, u, v, got, want)
					}
				}
			}
			// Rankings: maintained TopK and the live Index against the
			// fresh result, plus a fresh Index as the Index oracle.
			freshIx, err := query.New(cur, cur, opts)
			if err != nil {
				t.Fatal(err)
			}
			for u := step % 2; u < nn; u += 2 {
				un := graph.NodeID(u)
				want := fresh.TopK(un, 3)
				got, err := mt.TopK(un, 3)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRanking(t, seed, step, u, "Maintainer.TopK", got, want)

				live, err := mt.Index().TopK(un, 3)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := freshIx.TopK(un, 3)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRanking(t, seed, step, u, "live Index.TopK vs fresh Compute", live, want)
				assertSameRanking(t, seed, step, u, "live Index.TopK vs fresh Index", live, oracle)
			}
		}
	}
}

func assertSameRanking(t *testing.T, seed int64, step, u int, what string, got, want []stats.Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d step %d: %s(%d) returned %d entries, want %d", seed, step, what, u, len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Fatalf("seed %d step %d: %s(%d)[%d] score %v, want %v",
				seed, step, what, u, i, got[i].Score, want[i].Score)
		}
		if got[i].Index != want[i].Index {
			t.Fatalf("seed %d step %d: %s(%d)[%d] = node %d, want node %d",
				seed, step, what, u, i, got[i].Index, want[i].Index)
		}
	}
}

// TestMaintainerLocality asserts the subsystem's reason to exist: on a
// selective candidate map, a single-edge update replays a strict subset of
// the candidate universe instead of falling back to a full recompute.
func TestMaintainerLocality(t *testing.T) {
	// 16 disjoint 8-node chains with positional labels under θ = 1: the
	// candidate map holds only same-position pairs, and an update inside
	// one chain can only influence pairs involving that chain — a bounded
	// fraction of the candidate universe.
	const chains, length = 16, 8
	b := graph.NewBuilder()
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			id := b.AddNode(fmt.Sprintf("p%d", i))
			if i > 0 {
				b.MustAddEdge(id-1, id)
			}
		}
	}
	g := b.Build()
	opts := core.DefaultOptions(exact.BJ)
	opts.Theta = 1
	opts.Threads = 1
	opts.Epsilon = 1e-300
	opts.RelativeEps = false
	opts.MaxIters = 10

	mt, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mt.Apply([]graph.Change{{Op: graph.OpRemoveEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 {
		t.Fatalf("Applied = %d, want 1", st.Applied)
	}
	if st.Full {
		t.Fatalf("single-edge update fell back to a full recompute: %+v", st)
	}
	all := mt.cs.NumCandidates()
	if st.Cone == 0 || st.Cone >= all {
		t.Fatalf("cone of influence %d of %d candidates, want a strict nonempty subset", st.Cone, all)
	}
	if st.LocalPairs >= all {
		t.Fatalf("replayed closure %d did not stay below the %d-pair universe", st.LocalPairs, all)
	}
	// And the scores still match a fresh computation bit-identically.
	fresh, err := core.Compute(mt.Graph(), mt.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	nn := mt.Graph().NumNodes()
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			got, err := mt.Score(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh.Score(graph.NodeID(u), graph.NodeID(v)); got != want {
				t.Fatalf("Score(%d,%d) = %v, fresh %v", u, v, got, want)
			}
		}
	}
}

// TestMaintainerNoOpBatch checks that redundant changes neither recompute
// nor corrupt anything.
func TestMaintainerNoOpBatch(t *testing.T) {
	g := dataset.RandomGraph(11, 12, 30, 2)
	opts := core.DefaultOptions(exact.S)
	opts.Threads = 1
	mt, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var existing graph.Change
	found := false
	g.Edges(func(u, v graph.NodeID) bool {
		existing = graph.Change{Op: graph.OpAddEdge, U: u, V: v}
		found = true
		return false
	})
	if !found {
		t.Fatal("random graph has no edges")
	}
	before, err := mt.Score(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mt.Apply([]graph.Change{existing, {Op: graph.OpRemoveEdge, U: existing.V, V: existing.U}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 0 && !mt.Graph().HasEdge(existing.V, existing.U) {
		// The reverse edge may exist; only a truly redundant batch must
		// report zero.
		t.Logf("batch applied %d changes", st.Applied)
	}
	st2, err := mt.Apply([]graph.Change{existing})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Applied != 0 {
		t.Fatalf("re-adding a present edge applied %d changes", st2.Applied)
	}
	after, err := mt.Score(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if before != after && st.Applied == 0 {
		t.Fatalf("no-op batch changed scores: %v -> %v", before, after)
	}
}

// TestMaintainerErrors covers the rejection paths: out-of-range batches
// are refused atomically, custom Init is rejected, and reads validate
// their node ids.
func TestMaintainerErrors(t *testing.T) {
	g := dataset.RandomGraph(5, 8, 20, 2)
	opts := core.DefaultOptions(exact.BJ)
	opts.Threads = 1

	if _, err := New(g, core.Options{Variant: exact.BJ, WPlus: 0.4, WMinus: 0.4,
		Init: func(_, _ *graph.Graph, _, _ graph.NodeID, ls float64) float64 { return ls }}); err == nil {
		t.Fatal("custom Init accepted")
	}

	mt, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := []graph.Change{
		{Op: graph.OpAddEdge, U: 0, V: 1},
		{Op: graph.OpAddEdge, U: 0, V: 99},
	}
	if _, err := mt.Apply(bad); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	// The valid prefix must not have been applied.
	fresh, err := core.Compute(g, g, mt.Options())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mt.Score(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh.Score(0, 1); got != want {
		t.Fatalf("rejected batch leaked changes: Score(0,1) = %v, want %v", got, want)
	}
	// A node insertion inside the batch extends the valid range.
	okBatch := []graph.Change{
		{Op: graph.OpAddNode, Label: "x"},
		{Op: graph.OpAddEdge, U: 0, V: graph.NodeID(g.NumNodes())},
	}
	if _, err := mt.Apply(okBatch); err != nil {
		t.Fatalf("batch using a node added earlier in the batch rejected: %v", err)
	}
	if _, err := mt.Score(0, 99); err == nil {
		t.Fatal("out-of-range Score accepted")
	}
	if _, err := mt.TopK(99, 3); err == nil {
		t.Fatal("out-of-range TopK accepted")
	}
	if _, err := mt.TopK(0, 0); err == nil {
		t.Fatal("TopK with k=0 accepted")
	}
}

// TestMaintainerCrossesDenseCap grows the pair universe across
// DenseCapPairs, from the dense store (θ > 0 with pruning) and from the
// all-pairs store (θ = 0, no pruning), and checks that the patched
// maintainer answers exactly like a fresh Compute on the grown graph.
func TestMaintainerCrossesDenseCap(t *testing.T) {
	for _, c := range []struct {
		name  string
		theta float64
		ub    *core.UpperBound
	}{
		{"dense", 0.8, &core.UpperBound{Alpha: 0.3, Beta: 0.4}},
		{"all pairs", 0, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := dataset.RandomGraph(9, 9, 24, 2)
			opts := core.DefaultOptions(exact.BJ)
			opts.Threads = 1
			opts.Epsilon = 1e-300
			opts.RelativeEps = false
			opts.MaxIters = 8
			opts.Theta = c.theta
			opts.UpperBoundOpt = c.ub
			opts.DenseCapPairs = 100 // 9×9 = 81 dense; 11×11 = 121 sparse

			mt, err := New(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			liveIx := mt.Index()
			st, err := mt.Apply([]graph.Change{
				{Op: graph.OpAddNode, Label: "x"},
				{Op: graph.OpAddNode, Label: "y"},
				{Op: graph.OpAddEdge, U: 0, V: 10},
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Version != 1 || mt.Version() != 1 {
				t.Fatalf("Stats.Version=%d Version()=%d, want 1/1", st.Version, mt.Version())
			}
			if d := mt.Index().Candidates().Data(); d.Dense || d.AllPairs {
				t.Fatalf("the grown universe kept dense=%v allPairs=%v past the cap", d.Dense, d.AllPairs)
			}
			cur := mt.Graph()
			fresh, err := core.Compute(cur, cur, opts)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < cur.NumNodes(); u++ {
				un := graph.NodeID(u)
				for v := 0; v < cur.NumNodes(); v++ {
					got, err := mt.Score(un, graph.NodeID(v))
					if err != nil {
						t.Fatal(err)
					}
					if want := fresh.Score(un, graph.NodeID(v)); got != want {
						t.Fatalf("Score(%d,%d) = %v, fresh %v", u, v, got, want)
					}
				}
				top, err := mt.TopK(un, 5)
				if err != nil {
					t.Fatal(err)
				}
				if want := fresh.TopK(un, 5); !slices.Equal(top, want) {
					t.Fatalf("TopK(%d) = %v, fresh %v", u, top, want)
				}
			}
			// The Index handed out before the Apply must still answer on
			// the grown graph.
			if _, err := liveIx.Query(0, 10); err != nil {
				t.Fatalf("pre-Apply Index reference went stale: %v", err)
			}
		})
	}
}
