package core

import (
	"math"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// TestSimRankPinnedDiagonalMatters is the pinned-diagonal ablation: without
// PinDiagonal the framework's product configuration drifts from SimRank,
// whose fixed point requires s(u,u) = 1. The test shows (a) the unpinned
// diagonal falls below 1 and (b) off-diagonal scores then disagree with
// the native SimRank iteration.
func TestSimRankPinnedDiagonalMatters(t *testing.T) {
	g := dataset.RandomGraph(111, 20, 50, 2).Unlabeled()
	opts := SimRankOptions(0.8)
	opts.PinDiagonal = false
	opts.MaxIters = 10
	opts.Epsilon = 1e-12
	opts.RelativeEps = false
	res, err := Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	for u := 0; u < g.NumNodes(); u++ {
		if res.Score(graph.NodeID(u), graph.NodeID(u)) < 1-1e-9 {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("unpinned diagonal should drift below 1 for some node")
	}
}

// TestExactMatchingNeverBelowGreedy verifies the mapping ablation's key
// inequality on single updates: with identical inputs, the Hungarian
// mapping's one-step update is ≥ the greedy one (C3 maximality).
func TestExactMatchingNeverBelowGreedy(t *testing.T) {
	g1 := dataset.RandomGraph(113, 30, 80, 2)
	g2 := dataset.RandomGraph(114, 30, 80, 2)
	for _, variant := range []exact.Variant{exact.DP, exact.BJ} {
		mk := func(exactMatch bool) *Result {
			opts := DefaultOptions(variant)
			opts.MaxIters = 1 // single update from the same FSim⁰
			opts.Epsilon = 1e-12
			opts.RelativeEps = false
			ops := OperatorsFor(variant)
			ops.ExactMatching = exactMatch
			opts.Operators = &ops
			res, err := Compute(g1, g2, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		greedy := mk(false)
		hungarian := mk(true)
		greedy.ForEach(func(u, v graph.NodeID, s float64) {
			if h := hungarian.Score(u, v); h < s-1e-9 {
				t.Fatalf("%v: exact one-step update %v below greedy %v at (%d,%d)", variant, h, s, u, v)
			}
		})
	}
}

// TestExactMatchingAllocationFree pins the Hungarian branch of the
// injective mapping operator to zero allocations once its scratch is warm:
// the weight matrix comes from the operator scratch and the solver's
// workspace from matching.Scratch, for square and tall neighbor sets alike.
func TestExactMatchingAllocationFree(t *testing.T) {
	ops := OperatorsFor(exact.BJ)
	ops.ExactMatching = true
	lookup := func(x, y graph.NodeID) float64 { return float64((3*x+5*y)%7) / 7 }
	ids := func(n int) []graph.NodeID {
		s := make([]graph.NodeID, n)
		for i := range s {
			s[i] = graph.NodeID(i)
		}
		return s
	}
	scratch := newOpScratch()
	for _, dims := range [][2]int{{3, 3}, {4, 2}} {
		s1, s2 := ids(dims[0]), ids(dims[1])
		labels2, m := make([]graph.Label, dims[1]), fullMask(dims[0])
		want := ops.neighborScore(s1, s2, labels2, m, lookup, scratch) // warm up
		allocs := testing.AllocsPerRun(100, func() {
			if got := ops.neighborScore(s1, s2, labels2, m, lookup, scratch); got != want {
				t.Fatalf("%dx%d: score changed across calls: %v then %v", dims[0], dims[1], want, got)
			}
		})
		if allocs != 0 {
			t.Fatalf("%dx%d exact matching: %v allocations per evaluation, want 0", dims[0], dims[1], allocs)
		}
	}
}

// TestDampingPreservesFixpoints verifies the damping knob's contract:
// score-1 pairs (exact simulations) remain exactly 1 under damping.
func TestDampingPreservesFixpoints(t *testing.T) {
	g := dataset.RandomGraph(117, 25, 60, 3)
	for _, variant := range exact.Variants {
		rel := exact.MaximalSimulation(g, g, variant)
		opts := DefaultOptions(variant)
		opts.Damping = 0.5
		opts.MaxIters = 25
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			rel.Row(u, func(v int) {
				if s := res.Score(graph.NodeID(u), graph.NodeID(v)); math.Abs(s-1) > 1e-9 {
					t.Fatalf("%v: damping moved an exact-simulation pair to %v", variant, s)
				}
			})
		}
	}
}
