package exact

import (
	"fmt"
	"sort"
	"testing"

	"fsim/internal/graph"
)

// chainGraph builds a same-label directed path 0→1→…→n-1: refinement
// separates nodes by distance to the sink, so the partition provably ends
// discrete after a splitting (not confirming) round — the budget edge case
// the convergence-flag fix covers.
func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("a")
	}
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// signatureStable reports whether one more set-semantics refinement round
// (the rule RefineSignatures implements) would split the partition. It is
// an independent re-derivation: same-color nodes must agree on their
// (color, out-color-set) signature.
func signatureStable(g *graph.Graph, colors []Color) bool {
	key := func(u graph.NodeID) string {
		set := func(ids []graph.NodeID) []int32 {
			cs := make([]int32, 0, len(ids))
			for _, w := range ids {
				cs = append(cs, int32(colors[w]))
			}
			sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
			out := cs[:0]
			for i, c := range cs {
				if i == 0 || c != cs[i-1] {
					out = append(out, c)
				}
			}
			return out
		}
		return fmt.Sprint(colors[u], set(g.Out(u)))
	}
	seen := make(map[Color]string)
	for u := 0; u < g.NumNodes(); u++ {
		k := key(graph.NodeID(u))
		c := colors[u]
		if prev, ok := seen[c]; ok {
			if prev != k {
				return false
			}
		} else {
			seen[c] = k
		}
	}
	return true
}

func TestRefineSignaturesConvergedIsStable(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(100+seed, 18, 40, 2)
		res := RefineSignatures(g, g.NumNodes()+1)
		if !res.Converged {
			t.Fatalf("seed %d: generous budget did not converge", seed)
		}
		if res.Rounds > g.NumNodes() {
			t.Fatalf("seed %d: %d rounds exceeds the classical bound", seed, res.Rounds)
		}
		if !signatureStable(g, res.Colors) {
			t.Fatalf("seed %d: Converged=true but one more round would split", seed)
		}
		// Early stop must be output-identical: a larger budget changes
		// nothing once the fixpoint is confirmed.
		again := RefineSignatures(g, 10*g.NumNodes())
		for u, c := range res.Colors {
			if again.Colors[u] != c {
				t.Fatalf("seed %d: early-stopped colors diverge at node %d", seed, u)
			}
		}
	}
}

func TestRefineSignaturesNonPositiveBudget(t *testing.T) {
	g := randomGraph(31, 12, 30, 2) // repeated labels: label partition is not stable
	for _, k := range []int{0, -3} {
		res := RefineSignatures(g, k)
		if res.Rounds != 0 {
			t.Fatalf("k=%d ran %d rounds", k, res.Rounds)
		}
		if res.Converged {
			t.Fatalf("k=%d claimed convergence on the raw label partition", k)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				same := res.Colors[u] == res.Colors[v]
				if same != (g.Label(graph.NodeID(u)) == g.Label(graph.NodeID(v))) {
					t.Fatalf("k=%d: colors do not match the label partition", k)
				}
			}
		}
	}

	// All-unique labels: the k=0 partition is discrete, hence provably
	// stable even with no refinement budget.
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(fmt.Sprintf("L%d", i))
	}
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	discrete := RefineSignatures(b.Build(), 0)
	if !discrete.Converged || discrete.Rounds != 0 {
		t.Fatalf("discrete label partition: Converged=%v Rounds=%d", discrete.Converged, discrete.Rounds)
	}
}

func TestRefineSignaturesBudgetEndsOnDiscreteRound(t *testing.T) {
	g := chainGraph(6)
	full := RefineSignatures(g, g.NumNodes()+1)
	if !full.Converged {
		t.Fatal("chain did not converge under a generous budget")
	}
	// Re-run with the budget exhausted exactly at the stopping round: the
	// flag must still be true (the old accounting required one extra
	// confirming round when the final round went discrete).
	exact := RefineSignatures(g, full.Rounds)
	if !exact.Converged {
		t.Fatalf("budget=%d (the converging round) reported Converged=false", full.Rounds)
	}
	for u, c := range full.Colors {
		if exact.Colors[u] != c {
			t.Fatalf("colors diverge at node %d under the exact budget", u)
		}
	}
	if d := countDistinct(full.Colors); d != g.NumNodes() {
		t.Fatalf("chain expected to refine to the discrete partition, got %d blocks", d)
	}
}

// wlStable independently re-derives one WL round (multiset semantics over
// the undirected neighborhood, joint color space) and checks no split.
func wlStable(g1, g2 *graph.Graph, res *WLResult) bool {
	colors := append(append([]Color{}, res.Colors1...), res.Colors2...)
	n1 := g1.NumNodes()
	key := func(g *graph.Graph, u graph.NodeID, base int) string {
		var cs []int32
		for _, w := range g.Out(u) {
			cs = append(cs, int32(colors[base+int(w)]))
		}
		for _, w := range g.In(u) {
			cs = append(cs, int32(colors[base+int(w)]))
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		return fmt.Sprint(colors[base+int(u)], cs)
	}
	seen := make(map[Color]string)
	check := func(g *graph.Graph, n, base int) bool {
		for u := 0; u < n; u++ {
			k := key(g, graph.NodeID(u), base)
			c := colors[base+u]
			if prev, ok := seen[c]; ok {
				if prev != k {
					return false
				}
			} else {
				seen[c] = k
			}
		}
		return true
	}
	return check(g1, n1, 0) && check(g2, g2.NumNodes(), n1)
}

func TestWLNonPositiveBudgetClampsToConvergence(t *testing.T) {
	g1 := randomGraph(41, 14, 28, 2)
	g2 := randomGraph(43, 14, 28, 2)
	ref := WL(g1, g2, g1.NumNodes()+g2.NumNodes())
	if !ref.Converged {
		t.Fatal("reference budget did not converge")
	}
	for _, maxIter := range []int{0, -5} {
		res := WL(g1, g2, maxIter)
		if !res.Converged {
			t.Fatalf("maxIter=%d: clamped budget did not converge", maxIter)
		}
		if !wlStable(g1, g2, res) {
			t.Fatalf("maxIter=%d: Converged=true but one more round would split", maxIter)
		}
		for u, c := range ref.Colors1 {
			if res.Colors1[u] != c {
				t.Fatalf("maxIter=%d: colors1 diverge at %d", maxIter, u)
			}
		}
		for v, c := range ref.Colors2 {
			if res.Colors2[v] != c {
				t.Fatalf("maxIter=%d: colors2 diverge at %d", maxIter, v)
			}
		}
	}
}

func TestWLBudgetEndsOnDiscreteRound(t *testing.T) {
	g := chainGraph(5)
	full := WL(g, g, 0)
	if !full.Converged {
		t.Fatal("chain did not converge")
	}
	exact := WL(g, g, full.Rounds)
	if !exact.Converged {
		t.Fatalf("budget=%d (the converging round) reported Converged=false", full.Rounds)
	}
	if !wlStable(g, g, exact) {
		t.Fatal("exact-budget result is not stable")
	}
}

func TestWLDiscreteInitialColoring(t *testing.T) {
	b1 := graph.NewBuilder()
	b1.AddNode("x")
	b2 := graph.NewBuilder()
	b2.AddNode("y")
	res := WL(b1.Build(), b2.Build(), 0)
	if !res.Converged || res.Rounds != 0 {
		t.Fatalf("discrete initial coloring: Converged=%v Rounds=%d", res.Converged, res.Rounds)
	}

	empty := WL(graph.NewBuilder().Build(), graph.NewBuilder().Build(), 0)
	if !empty.Converged {
		t.Fatal("empty disjoint union should be trivially converged")
	}
}
