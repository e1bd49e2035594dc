package exact

import (
	"encoding/binary"
	"sort"

	"fsim/internal/graph"
)

// Color is a canonical partition-block identifier assigned during signature
// refinement; two nodes share a Color iff their signatures are equal.
type Color int32

// KBisimulation computes k-bisimulation signatures on a single graph
// following the iterative scheme of Luo et al. (paper §4.3): sig₀(u) = ℓ(u)
// and sigₖ(u) = (sigₖ₋₁(u), {sigₖ₋₁(u') | u' ∈ N+(u)}). Only out-neighbors
// are considered, matching the definition the paper relates to FSimb via
// Theorem 4. The returned colors canonicalize signatures: u and v are
// k-bisimilar iff colors[u] == colors[v].
func KBisimulation(g *graph.Graph, k int) []Color {
	return RefineSignatures(g, k, false).Colors
}

// KBisimilar reports whether u and v are k-bisimilar.
func KBisimilar(g *graph.Graph, k int, u, v graph.NodeID) bool {
	c := KBisimulation(g, k)
	return c[u] == c[v]
}

// KBisimulationBoth is the two-sided extension using both N+ and N−; it is
// the signature analogue of the paper's in+out data model and is used by
// the alignment baselines and the structural-twin partition.
func KBisimulationBoth(g *graph.Graph, k int) []Color {
	return RefineSignatures(g, k, true).Colors
}

// RefineResult carries the outcome of one bounded signature refinement.
type RefineResult struct {
	// Colors canonicalize the final signatures: u and v are equivalent iff
	// Colors[u] == Colors[v].
	Colors []Color
	// Rounds is the number of refinement rounds actually executed. It can
	// be smaller than the requested k: refinement only ever splits blocks,
	// so a round that produces no split proves the partition is the
	// fixpoint and the remaining rounds are skipped (they would reproduce
	// the same canonical ids — ids are assigned by first encounter in node
	// order, a function of the partition alone).
	Rounds int
	// Converged reports whether the partition provably reached its
	// fixpoint within the budget: either a round produced no split, or
	// the partition became discrete (every node its own block — nothing
	// left to split). When false, colors describe exactly k rounds of
	// refinement but the k+1-round partition could still be finer; callers
	// that need a stable partition (Theorem 5 equivalence checks, the
	// twin diagnostics of fsim quotient) must consult this flag rather than
	// assume a generous k sufficed.
	Converged bool
}

// RefineSignatures performs up to k rounds of signature refinement with
// canonical ids and reports whether the partition reached its fixpoint.
// k ≤ 0 performs no rounds and returns the label partition (the defined
// sig₀), with Converged set only in the trivially stable discrete case.
func RefineSignatures(g *graph.Graph, k int, both bool) RefineResult {
	n := g.NumNodes()
	colors := make([]Color, n)
	for u := 0; u < n; u++ {
		colors[u] = Color(g.Label(graph.NodeID(u)))
	}
	res := RefineResult{Colors: colors}
	distinct := countDistinct(colors)
	if distinct == n {
		// Discrete from the start (every label unique): provably stable
		// without running a confirming round.
		res.Converged = true
		return res
	}
	buf := make([]byte, 0, 256)
	neigh := make([]int32, 0, 64)
	for round := 0; round < k; round++ {
		index := make(map[string]Color)
		next := make([]Color, n)
		for u := 0; u < n; u++ {
			neigh = neigh[:0]
			for _, v := range g.Out(graph.NodeID(u)) {
				neigh = append(neigh, int32(colors[v]))
			}
			if both {
				// Separator distinguishes out-multiset from in-multiset.
				neigh = append(neigh, -1)
				for _, v := range g.In(graph.NodeID(u)) {
					neigh = append(neigh, int32(colors[v]))
				}
			}
			neigh = canonicalize(neigh, both)
			buf = buf[:0]
			buf = binary.AppendVarint(buf, int64(colors[u]))
			for _, c := range neigh {
				buf = binary.AppendVarint(buf, int64(c))
			}
			key := string(buf)
			id, ok := index[key]
			if !ok {
				id = Color(len(index))
				index[key] = id
			}
			next[u] = id
		}
		colors = next
		res.Colors = colors
		res.Rounds = round + 1
		d := countDistinct(colors)
		if d == distinct || d == n {
			// No split (fixpoint confirmed) or discrete (no further split
			// possible): later rounds are idempotent, stop early.
			res.Converged = true
			break
		}
		distinct = d
	}
	return res
}

// canonicalize sorts and deduplicates the neighbor colors. Deduplication
// matters: the k-bisimulation conditions are existential ("there exists a
// [k-1]-bisimilar neighbor"), so the signature is the SET of neighbor
// signatures, not the multiset. In two-sided mode the out part (before the
// -1 separator) and the in part are canonicalized independently.
func canonicalize(neigh []int32, both bool) []int32 {
	if !both {
		return sortedSet(neigh)
	}
	sep := 0
	for i, c := range neigh {
		if c == -1 {
			sep = i
			break
		}
	}
	out := sortedSet(neigh[:sep])
	in := sortedSet(neigh[sep+1:])
	out = append(out, -1)
	return append(out, in...)
}

func sortedSet(xs []int32) []int32 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	dedup := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			dedup = append(dedup, x)
		}
	}
	return dedup
}

// SignaturePartition groups nodes by color, returning blocks of node ids.
func SignaturePartition(colors []Color) map[Color][]graph.NodeID {
	blocks := make(map[Color][]graph.NodeID)
	for u, c := range colors {
		blocks[c] = append(blocks[c], graph.NodeID(u))
	}
	return blocks
}
