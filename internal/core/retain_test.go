package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// mixedLabelGraph is a random graph whose labels mix "L0"–"L2", which are
// Jaro–Winkler 0.7 apart, with "a" and "b", which share nothing with any
// other label: at θ = 0.6 it holds eligible and ineligible label pairs.
func mixedLabelGraph(seed int64, n int) *graph.Graph {
	labels := []string{"L0", "L1", "L2", "a", "b"}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < 3*n; i++ {
		b.MustAddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// retainCounts tallies what the checks of TestRetainedStandInsAreRead
// exercised, so the test cannot pass vacuously.
type retainCounts struct {
	retained   int // retained bounds
	unread     int // pruned pairs no candidate reads, whose StandIn is computed on demand
	ineligible int // label-ineligible non-candidates
}

// TestRetainedStandInsAreRead checks the retained §3.4 bounds against
// their definition, after a build and after every step of a Patch stream,
// on both stores, at θ = 0 and 0.6 and at 1–3 threads: the retained keys
// are exactly the pruned pairs (label-eligible non-candidates, under
// α > 0) that some candidate reads through forEachRead, each retained
// bound is RowBounds' bit for bit, and StandIn of every pair is α times
// its RowBounds bound for an eligible non-candidate and 0 for any other
// pair.
func TestRetainedStandInsAreRead(t *testing.T) {
	var counts retainCounts
	for seed := int64(0); seed < 12; seed++ {
		opts := DefaultOptions(exact.Variants[seed%4])
		opts.Threads = 1 + int(seed%3)
		opts.Theta = []float64{0, 0.6}[seed%2]
		opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
		store := "dense"
		if seed/2%2 == 1 {
			opts.DenseCapPairs = 1 // force the hash-map store
			store = "hash map"
		}
		rng := rand.New(rand.NewSource(seed + 900))
		m := graph.MutableOf(mixedLabelGraph(seed, 14))
		g := m.Snapshot()
		cs, err := NewCandidateSet(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkRetained(t, cs, fmt.Sprintf("seed %d (θ=%v, %s, %d threads) build", seed, opts.Theta, store, opts.Threads), &counts)
		for step := 0; step < 8; step++ {
			touched := map[graph.NodeID]bool{}
			for i, k := 0, 1+rng.Intn(3); i < k; i++ {
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
				t.Fatalf("seed %d step %d: Patch: %v", seed, step, err)
			}
			checkRetained(t, cs, fmt.Sprintf("seed %d (θ=%v, %s) step %d", seed, opts.Theta, store, step), &counts)
		}
	}
	if counts.retained == 0 || counts.unread == 0 || counts.ineligible == 0 {
		t.Fatalf("checks exercised %d retained bounds, %d unread pruned pairs and %d ineligible non-candidates; want each > 0",
			counts.retained, counts.unread, counts.ineligible)
	}
}

// checkRetained compares cs's retained bounds and StandIn with a
// brute-force evaluation over the whole pair universe.
func checkRetained(t *testing.T, cs *CandidateSet, what string, counts *retainCounts) {
	t.Helper()
	pruned := func(x, y graph.NodeID) bool { return cs.Eligible(x, y) && !cs.Contains(x, y) }
	read := map[pairbits.Key]bool{}
	for _, k := range cs.candPairs {
		u, v := k.Split()
		cs.forEachRead(u, v, func(x, y graph.NodeID) {
			if pruned(x, y) {
				read[pairbits.MakeKey(x, y)] = true
			}
		})
	}
	d := cs.Data()
	if len(d.PrunedKeys) != len(read) {
		t.Fatalf("%s: %d retained bounds, %d pruned pairs read by a candidate", what, len(d.PrunedKeys), len(read))
	}
	for i, k := range d.PrunedKeys {
		x, y := k.Split()
		if !read[k] {
			t.Fatalf("%s: retained bound of (%d,%d), which no candidate reads or which is not pruned", what, x, y)
		}
		if want := cs.RowBounds(x, []graph.NodeID{y}, nil)[0]; d.PrunedBounds[i] != want {
			t.Fatalf("%s: retained bound of (%d,%d) = %v, RowBounds %v", what, x, y, d.PrunedBounds[i], want)
		}
	}
	counts.retained += len(d.PrunedKeys)

	alpha := cs.opts.UpperBoundOpt.Alpha
	g1, g2 := cs.Graphs()
	for u := 0; u < g1.NumNodes(); u++ {
		for v := 0; v < g2.NumNodes(); v++ {
			un, vn := graph.NodeID(u), graph.NodeID(v)
			want := 0.0
			switch {
			case pruned(un, vn):
				want = alpha * cs.RowBounds(un, []graph.NodeID{vn}, nil)[0]
				if !read[pairbits.MakeKey(un, vn)] {
					counts.unread++
				}
			case !cs.Eligible(un, vn):
				counts.ineligible++
			}
			if got := cs.StandIn(un, vn); got != want {
				t.Fatalf("%s: StandIn(%d,%d) = %v, want %v", what, u, v, got, want)
			}
		}
	}
}
