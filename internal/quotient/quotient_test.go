package quotient

import (
	"fmt"
	"math/rand"
	"testing"

	"fsim/internal/graph"
)

// twinGraph generates a graph with guaranteed structural-twin blocks by
// blowing up a random base graph: each base node becomes a block of one or
// more members sharing a label, and each base edge becomes the complete
// bipartite connection between the two blocks. Every block is a set of
// structural twins by construction (identical literal out- and in-neighbor
// ID sets — self-loops expand to full blocks too, preserving twinhood), so
// the quotient partition provably has nontrivial blocks to compress.
func twinGraph(seed int64, n, m, labels, extra int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make(map[[2]int]struct{})
	for i := 0; i < m; i++ {
		edges[[2]int{rng.Intn(n), rng.Intn(n)}] = struct{}{}
	}
	size := make([]int, n)
	for i := range size {
		size[i] = 1
	}
	for e := 0; e < extra; e++ {
		size[rng.Intn(n)]++
	}
	b := graph.NewBuilder()
	members := make([][]graph.NodeID, n)
	for i := 0; i < n; i++ {
		lbl := fmt.Sprintf("L%d", rng.Intn(labels))
		for j := 0; j < size[i]; j++ {
			members[i] = append(members[i], b.AddNode(lbl))
		}
	}
	for e := range edges {
		for _, a := range members[e[0]] {
			for _, c := range members[e[1]] {
				b.MustAddEdge(a, c)
			}
		}
	}
	return b.Build()
}

func TestRefineInvariants(t *testing.T) {
	g := twinGraph(7, 12, 30, 2, 10)
	p := Refine(g, DefaultRefineRounds)
	if len(p.BlockOf) != g.NumNodes() {
		t.Fatalf("BlockOf covers %d of %d nodes", len(p.BlockOf), g.NumNodes())
	}
	total := 0
	for b, ms := range p.Members {
		total += len(ms)
		if len(ms) == 0 {
			t.Fatalf("block %d empty", b)
		}
		if p.Rep[b] != ms[0] {
			t.Fatalf("block %d: Rep %d is not the first member %d", b, p.Rep[b], ms[0])
		}
		for i, u := range ms {
			if p.BlockOf[u] != int32(b) {
				t.Fatalf("member %d of block %d has BlockOf %d", u, b, p.BlockOf[u])
			}
			if i > 0 && ms[i-1] >= u {
				t.Fatalf("block %d members not ascending", b)
			}
		}
	}
	if total != g.NumNodes() {
		t.Fatalf("blocks cover %d of %d nodes", total, g.NumNodes())
	}
	// Same-block nodes must be literal structural twins.
	for _, ms := range p.Members {
		for _, u := range ms[1:] {
			r := ms[0]
			if g.Label(u) != g.Label(r) {
				t.Fatalf("block mates %d,%d differ in label", r, u)
			}
			if fmt.Sprint(g.Out(u)) != fmt.Sprint(g.Out(r)) || fmt.Sprint(g.In(u)) != fmt.Sprint(g.In(r)) {
				t.Fatalf("block mates %d,%d differ in adjacency", r, u)
			}
		}
	}
	// The partition is independent of the prefilter depth.
	for _, k := range []int{0, 1, 5, -2} {
		pk := Refine(g, k)
		if pk.NumBlocks() != p.NumBlocks() {
			t.Fatalf("k=%d: %d blocks != %d", k, pk.NumBlocks(), p.NumBlocks())
		}
		for u := range pk.BlockOf {
			if pk.BlockOf[u] != p.BlockOf[u] {
				t.Fatalf("k=%d: node %d in block %d, expected %d", k, u, pk.BlockOf[u], p.BlockOf[u])
			}
		}
	}
}

func TestRefineMergesConstructedTwins(t *testing.T) {
	// Reconstruct the generator's blocks and require the partition to put
	// every constructed twin group in one block (it may merge more — base
	// nodes can coincide — but never split a constructed group).
	seed := int64(99)
	rng := rand.New(rand.NewSource(seed))
	n, m, labels, extra := 10, 25, 2, 8
	edges := make(map[[2]int]struct{})
	for i := 0; i < m; i++ {
		edges[[2]int{rng.Intn(n), rng.Intn(n)}] = struct{}{}
	}
	size := make([]int, n)
	for i := range size {
		size[i] = 1
	}
	for e := 0; e < extra; e++ {
		size[rng.Intn(n)]++
	}
	b := graph.NewBuilder()
	members := make([][]graph.NodeID, n)
	for i := 0; i < n; i++ {
		lbl := fmt.Sprintf("L%d", rng.Intn(labels))
		for j := 0; j < size[i]; j++ {
			members[i] = append(members[i], b.AddNode(lbl))
		}
	}
	for e := range edges {
		for _, a := range members[e[0]] {
			for _, c := range members[e[1]] {
				b.MustAddEdge(a, c)
			}
		}
	}
	g := b.Build()
	p := Refine(g, DefaultRefineRounds)
	for i, ms := range members {
		for _, u := range ms[1:] {
			if p.BlockOf[u] != p.BlockOf[ms[0]] {
				t.Fatalf("constructed twins %d,%d of base node %d split across blocks", ms[0], u, i)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	g := twinGraph(11, 10, 22, 2, 8)
	p := Refine(g, DefaultRefineRounds)
	q := p.Summarize(g)
	if q.NumNodes() != p.NumBlocks() {
		t.Fatalf("quotient has %d nodes, partition %d blocks", q.NumNodes(), p.NumBlocks())
	}
	if g.NumNodes() <= q.NumNodes() {
		t.Fatalf("no node compression: %d -> %d", g.NumNodes(), q.NumNodes())
	}
	for b := 0; b < p.NumBlocks(); b++ {
		if q.NodeLabelName(graph.NodeID(b)) != g.NodeLabelName(p.Rep[b]) {
			t.Fatalf("block %d label mismatch", b)
		}
	}
	// Quotient edges are exactly the block-projected original edges.
	want := make(map[[2]int32]struct{})
	g.Edges(func(u, v graph.NodeID) bool {
		want[[2]int32{p.BlockOf[u], p.BlockOf[v]}] = struct{}{}
		return true
	})
	got := make(map[[2]int32]struct{})
	q.Edges(func(u, v graph.NodeID) bool {
		got[[2]int32{int32(u), int32(v)}] = struct{}{}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("quotient has %d block edges, want %d", len(got), len(want))
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			t.Fatalf("missing quotient edge %v", e)
		}
	}
}
