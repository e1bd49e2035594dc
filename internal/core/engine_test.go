package core

import (
	"fmt"
	"math"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/strsim"
)

// figure1Scores computes the FSim scores of (u, v1..v4) for a variant with
// the paper's default parameters and the indicator label function.
func figure1Scores(t *testing.T, variant exact.Variant) (*dataset.Figure1, [4]float64) {
	t.Helper()
	f := dataset.NewFigure1()
	opts := DefaultOptions(variant)
	opts.Label = strsim.Indicator
	opts.Epsilon = 1e-9
	opts.RelativeEps = false
	res, err := Compute(f.P, f.G2, opts)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	var out [4]float64
	for i, v := range f.V {
		out[i] = res.Score(f.U, v)
	}
	return f, out
}

// TestTable2Pattern verifies the paper's Table 2: the ✓ cells score exactly
// 1 and the × cells score strictly below 1 but above 0.
func TestTable2Pattern(t *testing.T) {
	want := map[exact.Variant][4]bool{
		exact.S:  {false, true, true, true},
		exact.DP: {false, false, true, true},
		exact.B:  {false, true, false, true},
		exact.BJ: {false, false, false, true},
	}
	for variant, exactCells := range want {
		_, scores := figure1Scores(t, variant)
		for i, isOne := range exactCells {
			s := scores[i]
			if isOne && math.Abs(s-1) > 1e-6 {
				t.Errorf("FSim_%v(u,v%d) = %v, want 1 (simulation holds)", variant, i+1, s)
			}
			if !isOne && (s <= 0 || s >= 1-1e-9) {
				t.Errorf("FSim_%v(u,v%d) = %v, want in (0,1) (simulation fails)", variant, i+1, s)
			}
		}
	}
}

// TestRangeProperty verifies P1 on random graph pairs for every variant.
func TestRangeProperty(t *testing.T) {
	g1 := dataset.RandomGraph(1, 40, 120, 4)
	g2 := dataset.RandomGraph(2, 50, 160, 4)
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		res, err := Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.ForEach(func(u, v graph.NodeID, s float64) {
			if s < 0 || s > 1+1e-12 {
				t.Fatalf("FSim_%v(%d,%d) = %v out of [0,1]", variant, u, v, s)
			}
		})
	}
}

// TestSimulationDefiniteness verifies P2 in both directions on random
// graphs: FSim(u,v) = 1 iff u ⇝χ v.
func TestSimulationDefiniteness(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g1 := dataset.RandomGraph(seed*10+1, 20, 40, 3)
		g2 := dataset.RandomGraph(seed*10+2, 25, 50, 3)
		for _, variant := range exact.Variants {
			rel := exact.MaximalSimulation(g1, g2, variant)
			opts := DefaultOptions(variant)
			opts.Label = strsim.Indicator
			opts.Epsilon = 1e-10
			opts.RelativeEps = false
			res, err := Compute(g1, g2, opts)
			if err != nil {
				t.Fatal(err)
			}
			res.ForEach(func(u, v graph.NodeID, s float64) {
				isOne := math.Abs(s-1) <= 1e-6
				if isOne != rel.Contains(int(u), int(v)) {
					t.Fatalf("seed %d variant %v pair (%d,%d): FSim=%v but exact=%v",
						seed, variant, u, v, s, rel.Contains(int(u), int(v)))
				}
			})
		}
	}
}

// TestConditionalSymmetry verifies P3: the converse-invariant variants (b,
// bj) produce symmetric scores.
func TestConditionalSymmetry(t *testing.T) {
	g := dataset.RandomGraph(7, 30, 90, 3)
	for _, variant := range []exact.Variant{exact.B, exact.BJ} {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-10
		opts.RelativeEps = false
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				a := res.Score(graph.NodeID(u), graph.NodeID(v))
				b := res.Score(graph.NodeID(v), graph.NodeID(u))
				if math.Abs(a-b) > 1e-9 {
					t.Fatalf("variant %v: FSim(%d,%d)=%v != FSim(%d,%d)=%v", variant, u, v, a, v, u, b)
				}
			}
		}
	}
}

// TestDeltaMonotone verifies Theorem 1's convergence argument: with the
// maximum mapping operator (condition C3, restored by exact Hungarian
// matching for the injective variants) the per-iteration change Δk
// decreases monotonically.
func TestDeltaMonotone(t *testing.T) {
	g1 := dataset.RandomGraph(11, 35, 100, 3)
	g2 := dataset.RandomGraph(12, 35, 100, 3)
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-10
		opts.RelativeEps = false
		ops := OperatorsFor(variant)
		ops.ExactMatching = true // C3 requires the maximum mapping
		opts.Operators = &ops
		res, err := Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Deltas); i++ {
			if res.Deltas[i] > res.Deltas[i-1]+1e-12 {
				t.Fatalf("variant %v: Δ%d=%v > Δ%d=%v", variant, i+1, res.Deltas[i], i, res.Deltas[i-1])
			}
		}
	}
}

// TestGreedyOscillationBounded documents the deployed configuration: the
// greedy matching heuristic only 1/2-approximates C3, so a small bounded
// oscillation can persist (a stable cycle of amplitude ~0.0075 on this
// input). The test pins the facts a user relies on: the oscillation never
// grows beyond the initial delta, it stays small in absolute terms, and
// damping shrinks its amplitude. Strict convergence under exact matching
// is covered by TestDeltaMonotone.
func TestGreedyOscillationBounded(t *testing.T) {
	g1 := dataset.RandomGraph(11, 35, 100, 3)
	g2 := dataset.RandomGraph(12, 35, 100, 3)
	tailMax := func(deltas []float64, n int) float64 {
		m := 0.0
		for _, d := range deltas[len(deltas)-n:] {
			if d > m {
				m = d
			}
		}
		return m
	}
	for _, variant := range []exact.Variant{exact.DP, exact.BJ} {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-8
		opts.RelativeEps = false
		res, err := Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Deltas {
			if i > 0 && d > res.Deltas[0]+1e-12 {
				t.Fatalf("variant %v: Δ%d=%v exceeds Δ1=%v", variant, i+1, d, res.Deltas[0])
			}
		}
		plain := tailMax(res.Deltas, 5)
		if plain > 0.02 {
			t.Fatalf("variant %v: residual oscillation %v too large", variant, plain)
		}

		damped := opts
		damped.Damping = 0.5
		res2, err := Compute(g1, g2, damped)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Converged {
			continue // even better: damping fully settled it
		}
		if got := tailMax(res2.Deltas, 5); got > plain+1e-12 {
			t.Fatalf("variant %v: damping did not shrink oscillation: %v vs %v", variant, got, plain)
		}
	}
}

// TestCorollaryBound verifies Corollary 1: absolute-ε convergence within
// ⌈log_{w⁺+w⁻} ε⌉ iterations.
func TestCorollaryBound(t *testing.T) {
	g := dataset.RandomGraph(13, 40, 120, 3)
	opts := DefaultOptions(exact.S)
	opts.Epsilon = 1e-3
	opts.RelativeEps = false
	res, err := Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	bound := int(math.Ceil(math.Log(opts.Epsilon) / math.Log(opts.WPlus+opts.WMinus)))
	if !res.Converged {
		t.Fatalf("did not converge")
	}
	if res.Iterations > bound+1 {
		t.Fatalf("converged in %d iterations, Corollary 1 bound is %d", res.Iterations, bound)
	}
}

// TestThreadDeterminism verifies that results are identical at any thread
// count (static round-robin sharding).
func TestThreadDeterminism(t *testing.T) {
	g1 := dataset.RandomGraph(21, 40, 130, 4)
	g2 := dataset.RandomGraph(22, 45, 150, 4)
	for _, variant := range exact.Variants {
		base := DefaultOptions(variant)
		base.Threads = 1
		r1, err := Compute(g1, g2, base)
		if err != nil {
			t.Fatal(err)
		}
		multi := DefaultOptions(variant)
		multi.Threads = 7
		r2, err := Compute(g1, g2, multi)
		if err != nil {
			t.Fatal(err)
		}
		r1.ForEach(func(u, v graph.NodeID, s float64) {
			if s2 := r2.Score(u, v); s2 != s {
				t.Fatalf("variant %v: thread count changed FSim(%d,%d): %v vs %v", variant, u, v, s, s2)
			}
		})
	}
}

// TestStoreEquivalence verifies that all three candidate stores — fully
// dense, dense with a candidate bitmap (forced via a no-op upper bound),
// and the sparse hash map (forced via DenseCapPairs = 1) — produce
// bit-identical scores. A second pair of runs prunes with α > 0, so that
// non-candidate reads resolve to retained §3.4 stand-ins: the dense
// store's pruned-bitmap rank must read exactly what the hash map's
// resolver reads at every pair, and StandIn at every pair a candidate
// reads (the engine reads no other).
func TestStoreEquivalence(t *testing.T) {
	g1 := dataset.RandomGraph(31, 30, 90, 3)
	g2 := dataset.RandomGraph(32, 35, 100, 3)
	for _, variant := range exact.Variants {
		dense := DefaultOptions(variant)
		dense.Epsilon = 1e-8
		dense.RelativeEps = false
		rd, err := Compute(g1, g2, dense)
		if err != nil {
			t.Fatal(err)
		}

		bitmap := dense
		bitmap.UpperBoundOpt = &UpperBound{Alpha: 0, Beta: 0} // β=0 prunes nothing (bounds > 0)
		rb, err := Compute(g1, g2, bitmap)
		if err != nil {
			t.Fatal(err)
		}
		if rb.CandidateCount != g1.NumNodes()*g2.NumNodes() {
			t.Fatalf("variant %v: bitmap candidates %d, want all %d pairs",
				variant, rb.CandidateCount, g1.NumNodes()*g2.NumNodes())
		}

		hash := bitmap
		hash.DenseCapPairs = 1 // force the hash-map store
		rh, err := Compute(g1, g2, hash)
		if err != nil {
			t.Fatal(err)
		}

		rd.ForEach(func(u, v graph.NodeID, s float64) {
			if s2 := rb.Score(u, v); s != s2 {
				t.Fatalf("variant %v: bitmap/dense mismatch at (%d,%d): %v vs %v", variant, u, v, s, s2)
			}
			if s2 := rh.Score(u, v); s != s2 {
				t.Fatalf("variant %v: hash/dense mismatch at (%d,%d): %v vs %v", variant, u, v, s, s2)
			}
		})

		pruned := dense
		pruned.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.6}
		rp, err := Compute(g1, g2, pruned)
		if err != nil {
			t.Fatal(err)
		}
		prunedHash := pruned
		prunedHash.DenseCapPairs = 1
		rph, err := Compute(g1, g2, prunedHash)
		if err != nil {
			t.Fatal(err)
		}
		if rp.PrunedCount == 0 || rp.PrunedCount != rph.PrunedCount {
			t.Fatalf("variant %v: pruned counts %d (bitmap) and %d (hash), want equal and > 0",
				variant, rp.PrunedCount, rph.PrunedCount)
		}
		e := &engine{CandidateSet: rp.cs, lay: rp.cs.layout(new(ranks)), prev: rp.scores}
		lookup := e.lookupFunc()
		eh := &engine{CandidateSet: rph.cs, lay: rph.cs.layout(new(ranks)), prev: rph.scores}
		lookupHash := eh.lookupFunc()
		standIns := 0
		for u := 0; u < g1.NumNodes(); u++ {
			for v := 0; v < g2.NumNodes(); v++ {
				un, vn := graph.NodeID(u), graph.NodeID(v)
				if s, s2 := rp.Score(un, vn), rph.Score(un, vn); s != s2 {
					t.Fatalf("variant %v: α > 0 hash/bitmap mismatch at (%d,%d): %v vs %v", variant, u, v, s, s2)
				}
				got := lookup(un, vn)
				if want := lookupHash(un, vn); got != want {
					t.Fatalf("variant %v: dense read of (%d,%d) = %v, hash-map read %v", variant, u, v, got, want)
				}
				if !rph.cs.isRead(un, vn) {
					continue
				}
				want := rph.cs.StandIn(un, vn)
				if rp.Contains(un, vn) {
					want = rp.Score(un, vn)
				} else if want > 0 {
					standIns++
				}
				if got != want {
					t.Fatalf("variant %v: dense read of (%d,%d) = %v, want %v", variant, u, v, got, want)
				}
			}
		}
		if standIns == 0 {
			t.Fatalf("variant %v: no retained stand-in was read", variant)
		}
	}
}

// TestDeltaEquivalenceProperty is the worklist's correctness property over
// ~50 seeded random graph pairs: for every variant, Compute must reproduce
// the reference sweep of every pair (referenceSweep) — bit-identically by
// default and under DeltaMode at DeltaEps = 0 (skipped pairs are exactly
// those whose inputs are unchanged), and within 1e-9 at a small positive
// DeltaEps — and the dense and sparse stores must agree with each other
// under delta mode.
func TestDeltaEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		n1 := 10 + int(seed%7)
		n2 := 12 + int(seed%5)
		g1 := dataset.RandomGraph(seed*100+1, n1, 3*n1, 3)
		g2 := dataset.RandomGraph(seed*100+2, n2, 3*n2, 3)
		variant := exact.Variants[seed%4]

		full := DefaultOptions(variant)
		full.Epsilon = 1e-8
		full.RelativeEps = false
		// Exercise the label constraint and pruning paths on a slice of
		// the seeds so delta mode is checked against every store shape.
		if seed%3 == 1 {
			full.Theta = 0.5
		}
		if seed%5 == 2 {
			full.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.6}
		}
		rf := sweepOf(t, g1, g2, full)
		rc, err := Compute(g1, g2, full)
		if err != nil {
			t.Fatal(err)
		}
		requireSweepEquivalent(t, rf, rc, fmt.Sprintf("seed %d variant %v: default", seed, variant))

		exactDelta := full
		exactDelta.DeltaMode = true
		rd, err := Compute(g1, g2, exactDelta)
		if err != nil {
			t.Fatal(err)
		}
		requireSweepEquivalent(t, rf, rd, fmt.Sprintf("seed %d variant %v: exact delta", seed, variant))
		if len(rd.ActivePairs) == 0 || rd.ActivePairs[0] != rd.CandidateCount {
			t.Fatalf("seed %d variant %v: first round must be full: active %v, candidates %d",
				seed, variant, rd.ActivePairs, rd.CandidateCount)
		}

		approxDelta := full
		approxDelta.DeltaMode = true
		approxDelta.DeltaEps = 1e-10
		ra, err := Compute(g1, g2, approxDelta)
		if err != nil {
			t.Fatal(err)
		}

		sparseDelta := exactDelta
		sparseDelta.DenseCapPairs = 1 // force the hash-map store
		rs, err := Compute(g1, g2, sparseDelta)
		if err != nil {
			t.Fatal(err)
		}

		rf.ForEach(func(u, v graph.NodeID, s float64) {
			if s2 := ra.Score(u, v); math.Abs(s2-s) > 1e-9 {
				t.Fatalf("seed %d variant %v: DeltaEps=1e-10 drifted at (%d,%d): %v vs %v",
					seed, variant, u, v, s2, s)
			}
			if s2 := rs.Score(u, v); math.Abs(s2-s) > 1e-9 {
				t.Fatalf("seed %d variant %v: sparse delta store disagreed at (%d,%d): %v vs %v",
					seed, variant, u, v, s2, s)
			}
		})
	}
}

// TestDeltaFrontierShrinks pins the point of the worklist strategy: with a
// meaningful stability threshold the per-iteration active-pair counts must
// fall well below the candidate map in the later iterations, as pairs whose
// scores stopped moving freeze and stop reactivating their dependents.
func TestDeltaFrontierShrinks(t *testing.T) {
	g := dataset.RandomGraph(41, 60, 180, 4)
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-6
		opts.RelativeEps = false
		opts.DeltaMode = true
		opts.DeltaEps = 1e-4
		// The greedy matching of the injective variants oscillates above
		// DeltaEps on a large pair core (TestGreedyOscillationBounded), so
		// those pairs legitimately never freeze; exact matching restores
		// monotone convergence and with it a collapsing frontier.
		ops := OperatorsFor(variant)
		ops.ExactMatching = true
		opts.Operators = &ops
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ActivePairs) < 3 {
			t.Fatalf("variant %v: run too short to observe a frontier: %v", variant, res.ActivePairs)
		}
		last := res.ActivePairs[len(res.ActivePairs)-1]
		if last*2 >= res.CandidateCount {
			t.Fatalf("variant %v: frontier never shrank: %v of %d candidates",
				variant, res.ActivePairs, res.CandidateCount)
		}
	}
}

// TestDeltaDampingEquivalence covers the self-reactivation rule: with
// damping a dirty pair depends on its own previous score, so it must stay
// on the worklist until it stops moving, and the damped run must match the
// reference sweep of every pair. On the random graphs nearly every pair
// stays dirty and the worklist reactivates everything; the sink star
// reaches precise propagation, where only self-reactivation keeps its
// damped pairs moving.
func TestDeltaDampingEquivalence(t *testing.T) {
	type run struct {
		name    string
		g1, g2  *graph.Graph
		opts    Options
		precise bool // the worklist must reach precise propagation
	}
	var runs []run
	g1 := dataset.RandomGraph(51, 25, 75, 3)
	g2 := dataset.RandomGraph(52, 25, 75, 3)
	for _, variant := range []exact.Variant{exact.DP, exact.BJ} {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-8
		opts.RelativeEps = false
		opts.Damping = 0.5
		runs = append(runs, run{variant.String(), g1, g2, opts, false})
	}
	star, opts := dampedSinkStar(10)
	runs = append(runs, run{"sink star", star, star, opts, true})
	for _, r := range runs {
		rf := sweepOf(t, r.g1, r.g2, r.opts)
		delta := r.opts
		delta.DeltaMode = true
		rd, err := Compute(r.g1, r.g2, delta)
		if err != nil {
			t.Fatal(err)
		}
		requireSweepEquivalent(t, rf, rd, r.name+" damping")
		if last := rd.ActivePairs[len(rd.ActivePairs)-1]; r.precise && last*4 >= rd.CandidateCount {
			t.Fatalf("%s: worklist never went precise: %v of %d pairs", r.name, rd.ActivePairs, rd.CandidateCount)
		}
	}
}

// dampedSinkStar builds the graph on which damping self-reactivation is
// observable at DeltaEps = 0: a hub pointing at k sinks labelled "a" and
// one labelled "b". Under w⁻ = 0 a sink pair reads nothing; the same-label
// sink pairs sit at 1 from the start, while the 2k mixed-label pairs drift
// toward their damped target on their own previous score alone. They are
// few enough that the worklist propagates precisely instead of
// reactivating everything.
func dampedSinkStar(k int) (*graph.Graph, Options) {
	b := graph.NewBuilder()
	hub := b.AddNode("hub")
	for i := 0; i <= k; i++ {
		label := "a"
		if i == k {
			label = "b"
		}
		b.MustAddEdge(hub, b.AddNode(label))
	}
	opts := DefaultOptions(exact.BJ).WithPinnedIterations(30)
	opts.WPlus, opts.WMinus = 0.8, 0
	opts.Damping = 0.5
	return b.Build(), opts
}

// TestDeltaThreadDeterminism extends the determinism guarantee to the
// worklist strategy: word-sharded frontiers must give identical scores at
// any thread count.
func TestDeltaThreadDeterminism(t *testing.T) {
	g1 := dataset.RandomGraph(61, 40, 130, 4)
	g2 := dataset.RandomGraph(62, 45, 150, 4)
	for _, variant := range exact.Variants {
		base := DefaultOptions(variant)
		base.DeltaMode = true
		base.Threads = 1
		r1, err := Compute(g1, g2, base)
		if err != nil {
			t.Fatal(err)
		}
		multi := base
		multi.Threads = 7
		r2, err := Compute(g1, g2, multi)
		if err != nil {
			t.Fatal(err)
		}
		r1.ForEach(func(u, v graph.NodeID, s float64) {
			if s2 := r2.Score(u, v); s2 != s {
				t.Fatalf("variant %v: thread count changed delta FSim(%d,%d): %v vs %v", variant, u, v, s, s2)
			}
		})
		if len(r1.ActivePairs) != len(r2.ActivePairs) {
			t.Fatalf("variant %v: thread count changed the frontier trajectory: %v vs %v",
				variant, r1.ActivePairs, r2.ActivePairs)
		}
		for i := range r1.ActivePairs {
			if r1.ActivePairs[i] != r2.ActivePairs[i] {
				t.Fatalf("variant %v: active counts diverged at iteration %d: %v vs %v",
					variant, i+1, r1.ActivePairs, r2.ActivePairs)
			}
		}
	}
}

// TestDeltaEpsValidation pins the Options.normalize guard.
func TestDeltaEpsValidation(t *testing.T) {
	g := dataset.RandomGraph(71, 5, 10, 2)
	for _, bad := range []float64{-0.1, 1, 1.5} {
		opts := DefaultOptions(exact.S)
		opts.DeltaMode = true
		opts.DeltaEps = bad
		if _, err := Compute(g, g, opts); err == nil {
			t.Fatalf("DeltaEps=%v should be rejected", bad)
		}
	}
}

// TestThetaStoreEquivalence verifies bit-identical dense-bitmap and
// hash-map scores under an active label constraint (θ > 0). The dense
// store reads a label-ineligible pair as 0 from its candidate bitmap; the
// hash map's lookup returns 0 for it from the label check, before its
// index probe. The mapping operators never check θ themselves, so the
// cases cover every operator branch that reads such a 0 where the
// constraint used to exclude the pair: best and bidirectional, greedy and
// Hungarian matching, the product mapping (SimRank) and the max-normalized
// matching (RoleSim) on a self-pair, and §3.4 pruning with stand-ins.
func TestThetaStoreEquivalence(t *testing.T) {
	g1 := dataset.RandomGraph(33, 30, 90, 4)
	g2 := dataset.RandomGraph(34, 35, 100, 4)
	type thetaCase struct {
		name string
		self bool // score g1 against itself
		opts Options
	}
	var cases []thetaCase
	for _, variant := range exact.Variants {
		cases = append(cases, thetaCase{variant.String(), false, DefaultOptions(variant)})
	}
	for _, variant := range []exact.Variant{exact.DP, exact.BJ} {
		opts := DefaultOptions(variant)
		ops := OperatorsFor(variant)
		ops.ExactMatching = true
		opts.Operators = &ops
		cases = append(cases, thetaCase{variant.String() + "/hungarian", false, opts})
	}
	simRank, roleSim := SimRankOptions(0.8), RoleSimOptions(0.2)
	simRank.Label, roleSim.Label = nil, nil // the default label similarity, so θ bites
	cases = append(cases, thetaCase{"simrank", true, simRank}, thetaCase{"rolesim", true, roleSim})
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.6}
		cases = append(cases, thetaCase{variant.String() + "/pruned", false, opts})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Theta = 0.8 // labels Lk and Lj (k ≠ j) are Jaro–Winkler 0.7 apart
			opts.Epsilon = 1e-8
			opts.RelativeEps = false
			h1, h2 := g1, g2
			if c.self {
				h2 = g1
			}
			rb, err := Compute(h1, h2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rb.cs.dense || rb.cs.allPairs || rb.CandidateCount == 0 {
				t.Fatalf("want the dense store with a non-empty candidate bitmap (%d candidates)", rb.CandidateCount)
			}
			if h1.NumNodes()*h2.NumNodes() == rb.CandidateCount+rb.PrunedCount {
				t.Fatal("θ excluded no pair; the test would be vacuous")
			}
			hash := opts
			hash.DenseCapPairs = 1
			rh, err := Compute(h1, h2, hash)
			if err != nil {
				t.Fatal(err)
			}
			if rb.CandidateCount != rh.CandidateCount {
				t.Fatalf("candidate counts differ: %d vs %d", rb.CandidateCount, rh.CandidateCount)
			}
			rb.ForEach(func(u, v graph.NodeID, s float64) {
				if s2 := rh.Score(u, v); s != s2 {
					t.Fatalf("θ>0 store mismatch at (%d,%d): %v vs %v", u, v, s, s2)
				}
			})
		})
	}
}
