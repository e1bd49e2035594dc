package core

import (
	"math/rand"
	"slices"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// patchOptions cycles through variants, candidate shapes and both stores,
// mirroring the query subsystem's property configuration.
func patchOptions(seed int64) Options {
	opts := DefaultOptions(exact.Variants[seed%4])
	opts.Threads = 1
	if seed%3 == 1 {
		opts.Theta = 0.5
	}
	if seed%5 == 2 {
		opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.4}
	}
	if seed%5 == 4 {
		opts.UpperBoundOpt = &UpperBound{Alpha: 0, Beta: 0.5}
	}
	if seed%2 == 1 {
		opts.DenseCapPairs = 1 // the rows past the cap
	}
	return opts
}

// randomMutation applies one random effective mutation to m and returns
// the touched pre-existing nodes.
func randomMutation(rng *rand.Rand, m *graph.Mutable) []graph.NodeID {
	labels := []string{"a", "b", "c", "d"}
	switch rng.Intn(10) {
	case 0:
		m.AddNode(labels[rng.Intn(len(labels))])
		return nil
	case 1, 2, 3:
		// Remove a random existing edge, if any.
		n := m.NumNodes()
		for try := 0; try < 32; try++ {
			u := graph.NodeID(rng.Intn(n))
			if out := m.Out(u); len(out) > 0 {
				v := out[rng.Intn(len(out))]
				if _, err := m.RemoveEdge(u, v); err != nil {
					panic(err)
				}
				return []graph.NodeID{u, v}
			}
		}
		return nil
	default:
		n := m.NumNodes()
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if ok, err := m.AddEdge(u, v); err != nil {
			panic(err)
		} else if !ok {
			return nil
		}
		return []graph.NodeID{u, v}
	}
}

// TestPatchEquivalenceProperty drives random update streams over a mutable
// graph and asserts after every batch that the patched CandidateSet is
// indistinguishable from one rebuilt from scratch on the snapshot:
// identical membership, enumeration order, stand-ins, counters and store
// shape.
func TestPatchEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		checkPatchStream(t, seed, 10+int(seed%6), patchOptions(seed), false)
	}

	// Growth across DenseCapPairs: the universe stays within the cap for
	// two added nodes and leaves it with the third, so each stream patches
	// the dense (or all-pairs) store, crosses to the sparse one, and then
	// patches that. θ = 0.8 lies above the 0.7 Jaro–Winkler similarity of
	// two distinct RandomGraph labels, so those streams hold ineligible
	// pairs.
	crossing := []struct {
		name  string
		theta float64
		ub    *UpperBound
	}{
		{"θ>0 α=0", 0.8, &UpperBound{Alpha: 0, Beta: 0.4}},
		{"θ>0 α>0", 0.8, &UpperBound{Alpha: 0.3, Beta: 0.4}},
		{"θ=0 all pairs", 0, nil},
	}
	for _, c := range crossing {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(100); seed < 108; seed++ {
				n := 10 + int(seed%3)
				opts := DefaultOptions(exact.Variants[seed%4])
				opts.Threads = 1
				opts.Theta = c.theta
				opts.UpperBoundOpt = c.ub
				opts.DenseCapPairs = (n + 2) * (n + 2)
				checkPatchStream(t, seed, n, opts, true)
			}
		})
	}
}

// checkPatchStream patches a candidate set through six random update
// batches on an n-node random graph, one more node each batch when grow
// is set, and compares it with a fresh build after every batch.
func checkPatchStream(t *testing.T, seed int64, n int, opts Options, grow bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := graph.MutableOf(dataset.RandomGraph(seed*37+1, n, 3*n, 3))
	g := m.Snapshot()
	cs, err := NewCandidateSet(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		if grow {
			m.AddNode("a")
		}
		touched := map[graph.NodeID]bool{}
		for i, k := 0, 1+rng.Intn(3); i < k; i++ {
			for _, u := range randomMutation(rng, m) {
				touched[u] = true
			}
		}
		var touchedList []graph.NodeID
		for u := range touched {
			touchedList = append(touchedList, u)
		}
		g = m.Snapshot()
		delta, err := cs.Patch(g, g, touchedList, touchedList)
		if err != nil {
			t.Fatalf("seed %d step %d: Patch: %v", seed, step, err)
		}
		fresh, err := NewCandidateSet(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCandidates(t, seed, step, cs, fresh)
		if delta.N1 != g.NumNodes() || delta.N2 != g.NumNodes() {
			t.Fatalf("seed %d step %d: delta sizes %d×%d, graph %d", seed, step, delta.N1, delta.N2, g.NumNodes())
		}
	}
	if grow && cs.Data().Dense {
		t.Fatalf("seed %d: the grown stream never left the dense store", seed)
	}
}

// forEachStandIn calls fn for every pruned pair of row u of cs that
// retained a §3.4 stand-in (α > 0), in ascending v order, with its
// stand-in α·FSim̄.
func forEachStandIn(cs *CandidateSet, u graph.NodeID, fn func(v graph.NodeID, standIn float64)) {
	if cs.prunedOff == nil {
		return
	}
	alpha := cs.opts.UpperBoundOpt.Alpha
	for i := cs.prunedOff[u]; i < cs.prunedOff[u+1]; i++ {
		fn(cs.prunedCol[i], alpha*cs.prunedBound[i])
	}
}

// assertSameCandidates compares every observable of two candidate
// components over the full pair universe.
func assertSameCandidates(t *testing.T, seed int64, step int, got, want *CandidateSet) {
	t.Helper()
	if got.NumCandidates() != want.NumCandidates() {
		t.Fatalf("seed %d step %d: %d candidates, fresh build %d",
			seed, step, got.NumCandidates(), want.NumCandidates())
	}
	if got.PrunedCount() != want.PrunedCount() {
		t.Fatalf("seed %d step %d: pruned count %d, fresh build %d",
			seed, step, got.PrunedCount(), want.PrunedCount())
	}
	g1, g2 := want.Graphs()
	for u := 0; u < g1.NumNodes(); u++ {
		un := graph.NodeID(u)
		for v := 0; v < g2.NumNodes(); v++ {
			vn := graph.NodeID(v)
			if got.Contains(un, vn) != want.Contains(un, vn) {
				t.Fatalf("seed %d step %d: Contains(%d,%d) = %v, fresh build %v",
					seed, step, u, v, got.Contains(un, vn), want.Contains(un, vn))
			}
			if !want.Contains(un, vn) {
				if gs, ws := got.StandIn(un, vn), want.StandIn(un, vn); gs != ws {
					t.Fatalf("seed %d step %d: StandIn(%d,%d) = %v, fresh build %v",
						seed, step, u, v, gs, ws)
				}
			}
		}
		var gotRow, wantRow []graph.NodeID
		got.ForEachCandidate(un, func(v graph.NodeID) { gotRow = append(gotRow, v) })
		want.ForEachCandidate(un, func(v graph.NodeID) { wantRow = append(wantRow, v) })
		if len(gotRow) != len(wantRow) {
			t.Fatalf("seed %d step %d: row %d has %d candidates, fresh build %d",
				seed, step, u, len(gotRow), len(wantRow))
		}
		for i := range gotRow {
			if gotRow[i] != wantRow[i] {
				t.Fatalf("seed %d step %d: row %d entry %d = %d, fresh build %d",
					seed, step, u, i, gotRow[i], wantRow[i])
			}
		}
		type standIn struct {
			v graph.NodeID
			s float64
		}
		var gotSI, wantSI []standIn
		forEachStandIn(got, un, func(v graph.NodeID, s float64) { gotSI = append(gotSI, standIn{v, s}) })
		forEachStandIn(want, un, func(v graph.NodeID, s float64) { wantSI = append(wantSI, standIn{v, s}) })
		if len(gotSI) != len(wantSI) {
			t.Fatalf("seed %d step %d: row %d has %d stand-ins, fresh build %d",
				seed, step, u, len(gotSI), len(wantSI))
		}
		for i := range gotSI {
			if gotSI[i] != wantSI[i] {
				t.Fatalf("seed %d step %d: row %d stand-in %d = %+v, fresh build %+v",
					seed, step, u, i, gotSI[i], wantSI[i])
			}
		}
	}
	gd, wd := got.Data(), want.Data()
	if gd.Dense != wd.Dense || gd.AllPairs != wd.AllPairs {
		t.Fatalf("seed %d step %d: Data() store shape dense=%v allPairs=%v, fresh build dense=%v allPairs=%v",
			seed, step, gd.Dense, gd.AllPairs, wd.Dense, wd.AllPairs)
	}
	if !slices.Equal(gd.CandPairs, wd.CandPairs) || !slices.Equal(gd.RowOff, wd.RowOff) || gd.PrunedCount != wd.PrunedCount {
		t.Fatalf("seed %d step %d: Data() enumerates %d candidates in %d row offsets (pruned %d), fresh build %d in %d (pruned %d)",
			seed, step, len(gd.CandPairs), len(gd.RowOff), gd.PrunedCount, len(wd.CandPairs), len(wd.RowOff), wd.PrunedCount)
	}
	if !slices.Equal(gd.PrunedKeys, wd.PrunedKeys) || !slices.Equal(gd.PrunedBounds, wd.PrunedBounds) {
		t.Fatalf("seed %d step %d: Data() retains %d bounds, fresh build %d (keys or bounds differ)",
			seed, step, len(gd.PrunedKeys), len(wd.PrunedKeys))
	}
}

// TestPatchComputeEquivalence checks the end-to-end consequence: a
// ComputeOn over a patched component produces bit-identical scores to a
// fresh Compute on the mutated graph.
func TestPatchComputeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		m := graph.MutableOf(dataset.RandomGraph(seed*91+7, 12, 36, 3))
		opts := patchOptions(seed)
		opts.Epsilon = 1e-300
		opts.RelativeEps = false
		opts.MaxIters = 12

		g := m.Snapshot()
		cs, err := NewCandidateSet(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		touched := map[graph.NodeID]bool{}
		for i := 0; i < 4; i++ {
			for _, u := range randomMutation(rng, m) {
				touched[u] = true
			}
		}
		var touchedList []graph.NodeID
		for u := range touched {
			touchedList = append(touchedList, u)
		}
		g = m.Snapshot()
		if _, err := cs.Patch(g, g, touchedList, touchedList); err != nil {
			t.Fatal(err)
		}
		patched, err := ComputeOn(cs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				un, vn := graph.NodeID(u), graph.NodeID(v)
				if patched.Score(un, vn) != fresh.Score(un, vn) {
					t.Fatalf("seed %d: Score(%d,%d) = %v on patched set, fresh Compute %v",
						seed, u, v, patched.Score(un, vn), fresh.Score(un, vn))
				}
			}
		}
	}
}

// TestPatchErrors covers the contract violations Patch must reject.
func TestPatchErrors(t *testing.T) {
	g := dataset.RandomGraph(3, 8, 20, 2)
	opts := DefaultOptions(exact.BJ)

	cs, err := NewCandidateSet(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	smaller := dataset.RandomGraph(4, 4, 6, 2)
	if _, err := cs.Patch(smaller, smaller, nil, nil); err == nil {
		t.Fatal("Patch accepted a shrunken graph")
	}
	if _, err := cs.Patch(nil, nil, nil, nil); err == nil {
		t.Fatal("Patch accepted nil graphs")
	}
}
