package core

import (
	"math"
	"math/rand"
	"testing"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// rowSeeds lists the positions of row u's candidates of cs as closure
// seeds.
func rowSeeds(cs *CandidateSet, u graph.NodeID) []int {
	var seeds []int
	for pos, hi := cs.RowSpan(u); pos < hi; pos++ {
		seeds = append(seeds, pos)
	}
	return seeds
}

// requireClosureRun fails unless c's last run, over seeds on cs, equals a
// fresh Closure's bit for bit — the same pairs in the same order, the same
// scores, iterations and trajectory — and, under a pinned iteration
// budget, every member's score equals a batch ComputeOn's.
func requireClosureRun(t *testing.T, label string, cs *CandidateSet, c *Closure, seeds []int) {
	t.Helper()
	var fresh Closure
	iters, _ := cs.RunClosure(&fresh, seeds)
	if c.Len() != fresh.Len() || c.res.Iterations != iters {
		t.Fatalf("%s: reused closure %d pairs in %d iterations, fresh %d in %d",
			label, c.Len(), c.res.Iterations, fresh.Len(), iters)
	}
	if c.Len() == 0 {
		t.Fatalf("%s: empty closure", label)
	}
	for i, d := range fresh.res.Deltas {
		if math.Float64bits(c.res.Deltas[i]) != math.Float64bits(d) {
			t.Fatalf("%s: iteration %d Δ %v reused, %v fresh", label, i+1, c.res.Deltas[i], d)
		}
	}
	res, err := ComputeOn(cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fresh.Len(); i++ {
		u, v := cs.PairAt(fresh.Position(i))
		if gu, gv := cs.PairAt(c.Position(i)); gu != u || gv != v {
			t.Fatalf("%s: closure pair %d is (%d,%d) reused, (%d,%d) fresh", label, i, gu, gv, u, v)
		}
		got, want := c.Score(i), fresh.Score(i)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: (%d,%d): reused closure %v, fresh %v", label, u, v, got, want)
		}
		if batch := res.Score(u, v); math.Float64bits(got) != math.Float64bits(batch) {
			t.Fatalf("%s: (%d,%d): closure %v, ComputeOn %v", label, u, v, got, batch)
		}
	}
}

// TestClosureAcrossPatch reuses one Closure, whose engine keeps its
// buffers, worklists and member bitset, across Patches that add out-edges
// to its seed row, shift candidate positions, grow the node set within
// Options.DenseCapPairs, and past it. Each run starts on state the
// previous one left behind — buffers and bitsets sized to the old
// candidate count — and must rebuild it: its closure and scores must
// equal a fresh Closure's and, under the pinned budget, ComputeOn's bit
// for bit. The seed row's RowBounds, whose masks
// are pooled, must likewise equal a fresh set's after the first Patch.
func TestClosureAcrossPatch(t *testing.T) {
	g := hubGraph(7, 170)
	opts := DefaultOptions(exact.BJ).WithPinnedIterations(4)
	opts.Theta = 0.6
	opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
	n := g.NumNodes()
	opts.DenseCapPairs = (n + 1) * (n + 1) // one added node fits, two do not
	cs, err := NewCandidateSet(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	const u = 0 // a hub: two words of mask
	var reused Closure
	cs.RunClosure(&reused, rowSeeds(cs, u))
	requireClosureRun(t, "before patching", cs, &reused, rowSeeds(cs, u))
	vs := make([]graph.NodeID, n)
	for v := range vs {
		vs[v] = graph.NodeID(v)
	}
	cs.RowBounds(u, vs, nil) // pools masks of row u

	m := graph.MutableOf(g)
	patch := func(touched []graph.NodeID) *PatchDelta {
		t.Helper()
		g2 := m.Snapshot()
		d, err := cs.Patch(g2, g2, touched, touched)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	addEdges := func(x graph.NodeID, to []graph.NodeID) []graph.NodeID {
		touched := []graph.NodeID{x}
		for _, y := range to {
			if added, err := m.AddEdge(x, y); err != nil {
				t.Fatal(err)
			} else if added {
				touched = append(touched, y)
			}
		}
		return touched
	}

	var odd []graph.NodeID
	for v := 3; v < n; v += 2 {
		odd = append(odd, graph.NodeID(v))
	}
	patch(addEdges(u, odd))
	cs.RunClosure(&reused, rowSeeds(cs, u))
	requireClosureRun(t, "out-edges of the seed row", cs, &reused, rowSeeds(cs, u))
	g2, _ := cs.Graphs()
	rebuilt, err := NewCandidateSet(g2, g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := cs.RowBounds(u, vs, nil), rebuilt.RowBounds(u, vs, nil)
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("(%d,%d): bound %v after Patch, %v on a fresh set", u, v, got[v], want[v])
		}
	}

	// Rewire two low rows, so pairs ahead of the seed row's enter or
	// leave Hc and every later position moves.
	d := patch(append(addEdges(1, vs[100:140]), addEdges(2, vs[20:60])...))
	if len(d.Added)+len(d.Removed) == 0 {
		t.Fatal("the rewiring patch must move candidate positions")
	}
	cs.RunClosure(&reused, rowSeeds(cs, u))
	requireClosureRun(t, "shifted positions", cs, &reused, rowSeeds(cs, u))

	for i, wantDense := range []bool{true, false} {
		x := m.AddNode(g.LabelName(g.Label(graph.NodeID(u))))
		patch(addEdges(x, []graph.NodeID{u, 1, graph.NodeID(i + 5)}))
		if cs.dense != wantDense {
			t.Fatalf("after %d added nodes the store is dense=%v, want %v", i+1, cs.dense, wantDense)
		}
		cs.RunClosure(&reused, rowSeeds(cs, u))
		requireClosureRun(t, "grown nodes", cs, &reused, rowSeeds(cs, u))
	}
}

// dagGraph is a random DAG over three labels: every edge runs from a
// lower to a higher id, fanout of them from each node that has room.
// Under w⁻ = 0 a pair's score is final once the pairs it reads are, so
// the pairs settle from the sinks up and the dirty set thins out round by
// round.
func dagGraph(seed int64, n, fanout int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode([]string{"person", "city", "river"}[rng.Intn(3)])
	}
	for u := 0; u < n-1; u++ {
		for i := 0; i < fanout; i++ {
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1+rng.Intn(n-u-1)))
		}
	}
	return b.Build()
}

// TestClosureWorklistScope pins the closure's worklist to its members on
// a directional configuration (w⁻ = 0) over a DAG, where a member's
// dependents — the pairs whose updates read it — are mostly outside its
// closure, and where late rounds are few enough dirty pairs that the
// worklist propagates them precisely. Under
// DeltaMode every member is active in the first round and no later round
// activates more pairs than the closure holds; a worklist that leaked
// past the members would recompute non-member slots from whatever they
// held, and could change when the run stops. Each closure's scores must
// still equal ComputeOn's under a pinned budget. Both stores run: all
// pairs (θ = 0), and the candidate rows (θ = 0.6 separates the three
// labels, with §3.4 stand-ins), within Options.DenseCapPairs and past it.
func TestClosureWorklistScope(t *testing.T) {
	g := dagGraph(11, 60, 2)
	for _, store := range []struct {
		name  string
		theta float64
		cap   int
	}{{"all pairs", 0, 0}, {"dense", 0.6, 0}, {"sparse", 0.6, 1}} {
		opts := DefaultOptions(exact.BJ).WithPinnedIterations(16)
		opts.WPlus, opts.WMinus = 0.6, 0
		opts.DeltaMode = true
		opts.Theta = store.theta
		opts.DenseCapPairs = store.cap
		if store.theta > 0 {
			opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.3}
		}
		cs, err := NewCandidateSet(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ComputeOn(cs)
		if err != nil {
			t.Fatal(err)
		}
		var c Closure
		leaky := 0 // closures with dependents outside them
		for x := 0; x < g.NumNodes(); x++ {
			u := graph.NodeID(x)
			v := graph.NodeID((x * 7) % g.NumNodes())
			if !cs.Contains(u, v) {
				continue
			}
			cs.RunClosure(&c, []int{cs.Position(u, v)})
			if got := c.res.ActivePairs[0]; got != c.Len() {
				t.Fatalf("%s seed (%d,%d): %d pairs active in round one, closure %d", store.name, u, v, got, c.Len())
			}
			for it, active := range c.res.ActivePairs {
				if active > c.Len() {
					t.Fatalf("%s seed (%d,%d): %d pairs active in round %d, closure %d", store.name, u, v, active, it+1, c.Len())
				}
			}
			members := make(map[pairbits.Key]bool, c.Len())
			for i := 0; i < c.Len(); i++ {
				a, b := cs.PairAt(c.Position(i))
				members[pairbits.MakeKey(a, b)] = true
				if got, want := c.Score(i), res.Score(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed (%d,%d): (%d,%d) closure %v, ComputeOn %v", store.name, u, v, a, b, got, want)
				}
			}
			for i := 0; i < c.Len(); i++ {
				a, b := cs.PairAt(c.Position(i))
				referenceDependents(cs, a, b, func(p, q graph.NodeID) {
					if cs.Contains(p, q) && !members[pairbits.MakeKey(p, q)] {
						leaky++
					}
				})
			}
		}
		if leaky == 0 {
			t.Fatalf("%s: no closure has a dependent outside it; the test checks nothing", store.name)
		}
	}
}
