package core

import (
	"math"
	"testing"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/strsim"
)

// TestEmptyAndTinyGraphs exercises the degenerate shapes a library user
// can feed the engine: empty graphs, singletons, and edgeless graphs.
func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder().Build()
	single := func(label string) *graph.Graph {
		b := graph.NewBuilder()
		b.AddNode(label)
		return b.Build()
	}
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)

		// Empty × empty: no pairs, no panic.
		res, err := Compute(empty, empty, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CandidateCount != 0 {
			t.Fatalf("empty graphs should have 0 candidates, got %d", res.CandidateCount)
		}

		// Singleton same-label: isolated nodes χ-simulate each other for
		// every variant, so the score must be exactly 1 (P2).
		res, err = Compute(single("x"), single("x"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Score(0, 0); math.Abs(s-1) > 1e-9 {
			t.Fatalf("%v: isolated same-label pair = %v, want 1", variant, s)
		}

		// Singleton different labels with the indicator: the empty
		// neighborhoods trivially "simulate" (contributing w⁺+w⁻) but the
		// label term is 0, so the score is exactly w⁺+w⁻ — strictly below
		// 1, as P2 requires for a non-simulation (labels differ).
		opts.Label = strsim.Indicator
		res, err = Compute(single("x"), single("y"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Score(0, 0); math.Abs(s-(opts.WPlus+opts.WMinus)) > 1e-9 {
			t.Fatalf("%v: cross-label isolated pair = %v, want w+ + w- = %v",
				variant, s, opts.WPlus+opts.WMinus)
		}
	}
}

// TestEmptyNeighborhoodSemantics pins the 0/0 resolution of Equation 2
// against the exact relations on crafted shapes.
func TestEmptyNeighborhoodSemantics(t *testing.T) {
	// u has one out-neighbor; v has none (same labels).
	b1 := graph.NewBuilder()
	u := b1.AddNode("a")
	b1.MustAddEdge(u, b1.AddNode("b"))
	g1 := b1.Build()

	b2 := graph.NewBuilder()
	v := b2.AddNode("a")
	b2.AddNode("b") // same vocabulary, not connected
	g2 := b2.Build()

	for _, variant := range exact.Variants {
		// Exact: u cannot be simulated by v (u's child is uncoverable).
		if exact.Simulated(g1, g2, u, v, variant) {
			t.Fatalf("%v: u should not be simulated by the edgeless v", variant)
		}
		opts := DefaultOptions(variant)
		opts.Label = strsim.Indicator
		res, err := Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Score(u, v); s >= 1-1e-9 {
			t.Fatalf("%v: FSim(u,v) = %v, want < 1", variant, s)
		}
		// The converse direction (v's side empty) differentiates variants:
		// for s/dp the empty S1 is vacuously simulated.
		rev, err := Compute(g2, g1, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := rev.Score(v, u)
		switch variant {
		case exact.S, exact.DP:
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("%v: edgeless v should be fully simulated by u, got %v", variant, s)
			}
		case exact.B, exact.BJ:
			if s >= 1-1e-9 {
				t.Fatalf("%v: asymmetric neighborhoods cannot be %v-similar, got %v", variant, variant, s)
			}
		}
	}
}

// TestInvalidOptions verifies option validation errors.
func TestInvalidOptions(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("x")
	g := b.Build()
	bad := []Options{
		{WPlus: -0.1, WMinus: 0.5},
		{WPlus: 0.5, WMinus: 0.6}, // sum ≥ 1
		{WPlus: 1.0, WMinus: 0},
		{WPlus: 0.4, WMinus: 0.4, Theta: 1.5},
		{WPlus: 0.4, WMinus: 0.4, Damping: 1.0},
		{WPlus: 0.4, WMinus: 0.4, UpperBoundOpt: &UpperBound{Alpha: 1.0, Beta: 0.5}},
		{WPlus: 0.4, WMinus: 0.4, UpperBoundOpt: &UpperBound{Alpha: 0, Beta: 1.5}},
	}
	for i, opts := range bad {
		if _, err := Compute(g, g, opts); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, opts)
		}
	}
	// Degenerate w⁺+w⁻ = 0 is explicitly allowed: FSim = L.
	ok := Options{WPlus: 0, WMinus: 0, Label: strsim.Indicator}
	res, err := Compute(g, g, ok)
	if err != nil {
		t.Fatalf("w=0 should be allowed: %v", err)
	}
	if s := res.Score(0, 0); s != 1 {
		t.Fatalf("degenerate FSim should equal L, got %v", s)
	}
}

// TestSelfLoops exercises graphs with self-loops (allowed by the model).
func TestSelfLoops(t *testing.T) {
	b := graph.NewBuilder()
	u := b.AddNode("x")
	v := b.AddNode("x")
	b.MustAddEdge(u, u)
	b.MustAddEdge(v, v)
	g := b.Build()
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Two identical self-loop nodes χ-simulate each other.
		if s := res.Score(u, v); math.Abs(s-1) > 1e-9 {
			t.Fatalf("%v: self-loop twins score %v", variant, s)
		}
		if !exact.Simulated(g, g, u, v, variant) {
			t.Fatalf("%v: exact check disagrees on self-loop twins", variant)
		}
	}
}

// TestAsymmetricScoreOrientation documents the orientation: FSims(u,v)
// measures "u simulated BY v", so a pattern node scores 1 against a richer
// data node but not conversely.
func TestAsymmetricScoreOrientation(t *testing.T) {
	// u: a -> b.    v: a -> b, a -> c (extra child).
	b1 := graph.NewBuilder()
	u := b1.AddNode("a")
	b1.MustAddEdge(u, b1.AddNode("b"))
	g1 := b1.Build()

	b2 := graph.NewBuilder()
	v := b2.AddNode("a")
	b2.MustAddEdge(v, b2.AddNode("b"))
	b2.MustAddEdge(v, b2.AddNode("c"))
	g2 := b2.Build()

	opts := DefaultOptions(exact.S)
	opts.Label = strsim.Indicator
	fwd, err := Compute(g1, g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := fwd.Score(u, v); math.Abs(s-1) > 1e-9 {
		t.Fatalf("u should be fully s-simulated by the richer v, got %v", s)
	}
	bwd, err := Compute(g2, g1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := bwd.Score(v, u); s >= 1-1e-9 {
		t.Fatalf("the richer v cannot be fully simulated by u, got %v", s)
	}
}

// TestGreedyVsHungarianDeviation bounds the greedy-vs-Hungarian ablation: the
// converged greedy scores never exceed the exact-matching scores by more
// than numerical noise, and on sparse random graphs they stay close.
func TestGreedyVsHungarianDeviation(t *testing.T) {
	g1 := dsRandom(91, 40, 90)
	g2 := dsRandom(92, 40, 90)
	for _, variant := range []exact.Variant{exact.DP, exact.BJ} {
		greedyOpts := DefaultOptions(variant)
		greedyOpts.MaxIters = 15
		gRes, err := Compute(g1, g2, greedyOpts)
		if err != nil {
			t.Fatal(err)
		}
		exactOpts := DefaultOptions(variant)
		exactOpts.MaxIters = 15
		ops := OperatorsFor(variant)
		ops.ExactMatching = true
		exactOpts.Operators = &ops
		eRes, err := Compute(g1, g2, exactOpts)
		if err != nil {
			t.Fatal(err)
		}
		var maxDiff, sumDiff float64
		n := 0
		gRes.ForEach(func(u, v graph.NodeID, s float64) {
			d := eRes.Score(u, v) - s
			if d > maxDiff {
				maxDiff = d
			}
			if d < -0.05 {
				t.Fatalf("%v: greedy exceeded exact by %v at (%d,%d)", variant, -d, u, v)
			}
			sumDiff += math.Abs(d)
			n++
		})
		if avg := sumDiff / float64(n); avg > 0.05 {
			t.Errorf("%v: mean |greedy - exact| = %v, unexpectedly large", variant, avg)
		}
	}
}

// dsRandom builds a small random graph without importing dataset (keeps
// this file self-contained for the deviation test).
func dsRandom(seed int64, n, m int) *graph.Graph {
	b := graph.NewBuilder()
	state := uint64(seed)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + next(3))))
	}
	for i := 0; i < m; i++ {
		b.MustAddEdge(graph.NodeID(next(n)), graph.NodeID(next(n)))
	}
	return b.Build()
}
