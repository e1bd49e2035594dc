package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/strsim"
)

// mergeGraph is a random graph over labelVocabulary plus a label far from
// every other ("zzzz"), whose rows are empty at θ = 0.6. Node 1 is a hub
// whose out- and in-lists hold about half the nodes, longer than the
// shorter rows (looked up in the list's position table), while the rows
// of the commoner labels are longer than most lists (searched from the
// list by galloping). It has self-loops,
// edges at the first and the last node, and isolated nodes.
func mergeGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		label := "zzzz"
		if i%9 != 4 {
			// Half the nodes share the first four labels: long rows.
			label = labelVocabulary[rng.Intn(len(labelVocabulary))]
			if rng.Intn(2) == 0 {
				label = labelVocabulary[rng.Intn(4)]
			}
		}
		b.AddNode(label)
	}
	const hub = 1
	for v := 0; v < n; v++ {
		if v%9 == 7 {
			continue // isolated unless a random edge below finds it
		}
		if rng.Intn(2) == 0 {
			b.MustAddEdge(hub, graph.NodeID(v))
		}
		if rng.Intn(2) == 0 {
			b.MustAddEdge(graph.NodeID(v), hub)
		}
	}
	for _, u := range []int{0, 3, n - 1} {
		b.MustAddEdge(graph.NodeID(u), graph.NodeID(u)) // self-loops
	}
	b.MustAddEdge(0, graph.NodeID(n-1))
	b.MustAddEdge(graph.NodeID(n-1), 0)
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u%9 != 7 && v%9 != 7 {
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Build()
}

// mergeLists returns the ascending g2 lists the merge is checked against:
// every out- and in-list of g2, the empty list, every node (the first and
// the last column included) and a random half of them.
func mergeLists(rng *rand.Rand, g2 *graph.Graph) [][]graph.NodeID {
	all := make([]graph.NodeID, g2.NumNodes())
	var half []graph.NodeID
	for v := range all {
		all[v] = graph.NodeID(v)
		if rng.Intn(2) == 0 {
			half = append(half, graph.NodeID(v))
		}
	}
	lists := [][]graph.NodeID{nil, all, half}
	for v := 0; v < g2.NumNodes(); v++ {
		lists = append(lists, g2.Out(graph.NodeID(v)), g2.In(graph.NodeID(v)))
	}
	return lists
}

// mergeYield is one call of joinRows' visitors: ys[j] is a candidate of
// row xs[i] at position pos, or (bound) holds the retained stand-in
// standIn.
type mergeYield struct {
	i, j, pos int
	bound     bool
	standIn   float64
}

// bruteReads marks, over the n1×n2 pair universe, every pair some
// candidate of cs reads, from forEachRead over every candidate found by
// Contains.
func bruteReads(cs *CandidateSet) []bool {
	read := make([]bool, cs.n1*cs.n2)
	for u := 0; u < cs.n1; u++ {
		for v := 0; v < cs.n2; v++ {
			if cs.Contains(graph.NodeID(u), graph.NodeID(v)) {
				cs.forEachRead(graph.NodeID(u), graph.NodeID(v), func(x, y graph.NodeID) { read[int(x)*cs.n2+int(y)] = true })
			}
		}
	}
	return read
}

// requireMergedReads checks joinRows on cs against brute force, for every
// list of lists and the rows of every g1 node, one at a time and as one
// join of xs, the g1 nodes in a shuffled order: the candidates of the
// candidate list itself (a linear scan, not the row offsets) at their
// positions, and the bounds of the label-eligible non-candidates some
// candidate reads (under α > 0) with the stand-in of fresh, a set built
// from scratch on the same graphs, row by row and in ascending j within a
// row. It checks the reverse visitor, for the pairs of the sampled g1
// nodes against every g2 node, against referenceDependents filtered by
// Contains.
func requireMergedReads(t *testing.T, label string, rng *rand.Rand, cs, fresh *CandidateSet, lists [][]graph.NodeID, sample []graph.NodeID) {
	t.Helper()
	position := map[pairbits.Key]int{}
	if cs.allPairs {
		for u := 0; u < cs.n1; u++ {
			for v := 0; v < cs.n2; v++ {
				position[pairbits.MakeKey(graph.NodeID(u), graph.NodeID(v))] = u*cs.n2 + v
			}
		}
	}
	for pos, k := range cs.candPairs {
		position[k] = pos
	}
	read := bruteReads(fresh)
	keeps := cs.keepsBounds()
	var got, want []mergeYield
	var js JoinScratch
	cand := func(i, j, pos int) { got = append(got, mergeYield{i: i, j: j, pos: pos}) }
	bound := func(i, j, b int) {
		got = append(got, mergeYield{i: i, j: j, pos: -1, bound: true, standIn: cs.opts.UpperBoundOpt.Alpha * cs.prunedBound[b]})
	}
	// wantRow appends to want what row xs[i] = x yields.
	wantRow := func(i int, x graph.NodeID, ys []graph.NodeID) {
		for j, y := range ys {
			if pos, ok := position[pairbits.MakeKey(x, y)]; ok {
				want = append(want, mergeYield{i: i, j: j, pos: pos})
			} else if keeps && read[int(x)*cs.n2+int(y)] && cs.Eligible(x, y) {
				want = append(want, mergeYield{i: i, j: j, pos: -1, bound: true, standIn: fresh.StandIn(x, y)})
			}
		}
	}
	check := func(xs, ys []graph.NodeID) {
		want = want[:0]
		for i, x := range xs {
			wantRow(i, x, ys)
		}
		got = got[:0]
		cs.joinRows(&js, xs, ys, cand, bound)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: rows %v against %v: join yields %v, want %v", label, xs, ys, got, want)
		}
		if slices.ContainsFunc(js.at, func(j int32) bool { return j != 0 }) {
			t.Fatalf("%s: rows %v against %v: the join left its position table dirty", label, xs, ys)
		}
	}
	xs := make([]graph.NodeID, cs.n1)
	for x := range xs {
		xs[x] = graph.NodeID(x)
	}
	rng.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
	for _, ys := range lists {
		for _, x := range xs {
			check([]graph.NodeID{x}, ys)
		}
		check(xs, ys)
	}
	var gotDep, wantDep []int
	for _, x := range sample {
		for y := 0; y < cs.n2; y++ {
			yn := graph.NodeID(y)
			gotDep, wantDep = gotDep[:0], wantDep[:0]
			cs.ForEachCandidateDependent(&js, x, yn, func(pos int) { gotDep = append(gotDep, pos) })
			referenceDependents(cs, x, yn, func(u, v graph.NodeID) {
				if cs.Contains(u, v) {
					wantDep = append(wantDep, position[pairbits.MakeKey(u, v)])
				}
			})
			slices.Sort(gotDep)
			slices.Sort(wantDep)
			if !slices.Equal(gotDep, wantDep) {
				t.Fatalf("%s: dependents of (%d,%d) at %v, want %v", label, x, y, gotDep, wantDep)
			}
		}
	}
}

// referenceDependents calls fn for every pair whose Equation 3 update
// reads FSim(x, y), candidate or not: each (u, v) of N⁻(x) × N⁻(y) under
// w⁺ and of N⁺(x) × N⁺(y) under w⁻.
func referenceDependents(cs *CandidateSet, x, y graph.NodeID, fn func(u, v graph.NodeID)) {
	if cs.opts.WPlus > 0 {
		for _, u := range cs.g1.In(x) {
			for _, v := range cs.g2.In(y) {
				fn(u, v)
			}
		}
	}
	if cs.opts.WMinus > 0 {
		for _, u := range cs.g1.Out(x) {
			for _, v := range cs.g2.Out(y) {
				fn(u, v)
			}
		}
	}
}

// TestMergedReadsMatchBruteForce pins joinRows, the one read of the
// candidate store, and the reverse visitor built on it against brute
// force (requireMergedReads) on mergeGraph: at θ ∈ {0, 0.6}, without
// pruning and with α ∈ {0, 0.3}, within Options.DenseCapPairs and past it
// (DenseCapPairs = 1), on 1–3 build threads; after a build, after
// NewCandidateSetFromData, and after every step of a Patch stream that
// adds and removes edges and nodes (a new label among them).
func TestMergedReadsMatchBruteForce(t *testing.T) {
	const n = 60
	config := 0
	for _, theta := range []float64{0, 0.6} {
		for _, ub := range []*UpperBound{nil, {Alpha: 0, Beta: 0.5}, {Alpha: 0.3, Beta: 0.5}} {
			for _, denseCap := range []int{0, 1} {
				config++
				threads := 1 + config%3
				name := fmt.Sprintf("theta=%v/ub=%v/cap=%d/threads=%d", theta, ub, denseCap, threads)
				t.Run(name, func(t *testing.T) {
					seed := int64(config)
					rng := rand.New(rand.NewSource(seed))
					m := graph.MutableOf(mergeGraph(seed, n))
					g := m.Snapshot()
					opts := DefaultOptions(exact.BJ)
					opts.Label = strsim.JaroWinkler
					opts.Theta, opts.UpperBoundOpt = theta, ub
					opts.DenseCapPairs, opts.Threads = denseCap, threads
					cs, err := NewCandidateSet(g, g, opts)
					if err != nil {
						t.Fatal(err)
					}
					if theta > 0 && cs.NumCandidates() == 0 {
						t.Fatal("no candidates: the test would be vacuous")
					}
					sample := []graph.NodeID{0, 1, 4, graph.NodeID(n - 1)}
					requireMergedReads(t, "build", rng, cs, cs, mergeLists(rng, g), sample)
					loaded, err := NewCandidateSetFromData(g, g, opts, cs.Data())
					if err != nil {
						t.Fatal(err)
					}
					requireMergedReads(t, "from data", rng, loaded, cs, mergeLists(rng, g), sample)
					for step := 0; step < 6; step++ {
						touched := map[graph.NodeID]bool{}
						for i := 0; i < 3; i++ {
							for _, u := range randomMutation(rng, m) {
								touched[u] = true
							}
						}
						var list []graph.NodeID
						for u := range touched {
							list = append(list, u)
						}
						g = m.Snapshot()
						if _, err := cs.Patch(g, g, list, list); err != nil {
							t.Fatal(err)
						}
						fresh, err := NewCandidateSet(g, g, opts)
						if err != nil {
							t.Fatal(err)
						}
						requireMergedReads(t, fmt.Sprintf("patch step %d", step), rng, cs, fresh, mergeLists(rng, g), sample)
					}
				})
			}
		}
	}
}

// TestGallop checks gallop against a linear scan on every target around
// every entry of ascending lists of lengths 0 to 40.
func TestGallop(t *testing.T) {
	for n := 0; n <= 40; n++ {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(3 * i)
		}
		for target := int32(-1); target <= int32(3*n+1); target++ {
			want := 0
			for want < n && s[want] < target {
				want++
			}
			if got := gallop(s, target); got != want {
				t.Fatalf("gallop(%d entries, %d) = %d, want %d", n, target, got, want)
			}
		}
	}
}
