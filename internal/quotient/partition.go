// Package quotient computes structural-twin partitions: a
// partition-refinement pass (hash-refined per Rau et al.,
// arXiv:2204.05821) that groups nodes with equal labels and identical
// literal out- and in-neighbor ID sets, and summarizes a graph into its
// quotient graph. `fsim quotient` prints these as twin diagnostics.
//
// Why literal adjacency and not k-bisimulation proper: classical
// (set-semantics) bisimulation merges nodes whose neighborhoods agree as
// SETS of classes, but the fractional operators are multiset-sensitive —
// the dp/bj greedy matching 1/2-approximation is not even invariant under
// row permutations of tied weights — so any coarsening beyond literal
// neighbor identity can perturb scores in the last ulp. Structural twins
// are airtight: every Equation 3 update of (u, v) and of its twin pair
// (u′, v) reads literally identical adjacency slices and identical
// previous-iteration scores. The bounded k-bisimulation refinement
// (exact.RefineSignatures, both directions) serves as the hash prefilter:
// twins are k-bisimilar for every k, so bucketing by color first only
// shrinks the buckets the exact adjacency certification has to compare.
package quotient

import (
	"encoding/binary"

	"fsim/internal/exact"
	"fsim/internal/graph"
)

// DefaultRefineRounds is the k-bisimulation prefilter depth `fsim quotient`
// uses. The twin partition is independent of the depth (see Refine); two
// rounds keep the hash buckets small at negligible cost.
const DefaultRefineRounds = 2

// Partition groups a graph's nodes into structural-twin blocks.
type Partition struct {
	// BlockOf maps each node to its block index.
	BlockOf []int32
	// Rep is each block's representative: its smallest member (blocks are
	// discovered in ascending node order, so Rep is the first member).
	Rep []graph.NodeID
	// Members lists each block's nodes in ascending order; Members[b][0]
	// == Rep[b].
	Members [][]graph.NodeID
	// KBisimClasses counts the k-bisimulation classes of the hash
	// prefilter — a diagnostic: the twin partition refines it.
	KBisimClasses int
	// Rounds and RefinementStable report the prefilter's refinement
	// trajectory (exact.RefineResult semantics).
	Rounds           int
	RefinementStable bool
}

// NumBlocks returns the number of equivalence blocks.
func (p *Partition) NumBlocks() int { return len(p.Rep) }

// Size returns the number of members of block b.
func (p *Partition) Size(b int32) int { return len(p.Members[b]) }

// Refine computes the structural-twin partition of g. k bounds the
// k-bisimulation prefilter depth (clamped at 0 = label partition); the
// resulting partition is independent of k — twins share signatures at
// every depth, so the colors only pre-bucket the exact-adjacency
// certification that defines the blocks.
func Refine(g *graph.Graph, k int) *Partition {
	if k < 0 {
		k = 0
	}
	ref := exact.RefineSignatures(g, k, true)
	n := g.NumNodes()
	p := &Partition{
		BlockOf:          make([]int32, n),
		KBisimClasses:    countColors(ref.Colors),
		Rounds:           ref.Rounds,
		RefinementStable: ref.Converged,
	}
	index := make(map[string]int32)
	buf := make([]byte, 0, 256)
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		buf = buf[:0]
		buf = binary.AppendVarint(buf, int64(ref.Colors[u]))
		buf = binary.AppendVarint(buf, int64(g.Label(id)))
		for _, w := range g.Out(id) {
			buf = binary.AppendVarint(buf, int64(w))
		}
		buf = binary.AppendVarint(buf, -1) // out/in separator
		for _, w := range g.In(id) {
			buf = binary.AppendVarint(buf, int64(w))
		}
		key := string(buf)
		b, ok := index[key]
		if !ok {
			b = int32(len(p.Rep))
			index[key] = b
			p.Rep = append(p.Rep, id)
			p.Members = append(p.Members, nil)
		}
		p.BlockOf[u] = b
		p.Members[b] = append(p.Members[b], id)
	}
	return p
}

// Summarize collapses g into its quotient graph: one node per block
// (labelled with the block's shared label) and an edge b1→b2 whenever some
// member of b1 has an out-edge into b2 — the partition→quotient-triples
// shape. Because twins share literal adjacency, the representative's edges
// already determine the block adjacency exactly. Block b becomes quotient
// node b; pair Summarize with Members for the block sizes.
//
// The quotient graph is a reporting and inspection artifact (fsim
// quotient): collapsing blocks changes neighbor multiplicities and degree
// normalizations, so scores are never computed on it.
func (p *Partition) Summarize(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	for _, rep := range p.Rep {
		b.AddNode(g.NodeLabelName(rep))
	}
	for bu, rep := range p.Rep {
		seen := make(map[int32]struct{})
		for _, w := range g.Out(rep) {
			bv := p.BlockOf[w]
			if _, dup := seen[bv]; dup {
				continue
			}
			seen[bv] = struct{}{}
			b.MustAddEdge(graph.NodeID(bu), graph.NodeID(bv))
		}
	}
	return b.Build()
}

func countColors(colors []exact.Color) int {
	seen := make(map[exact.Color]struct{}, len(colors))
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}
