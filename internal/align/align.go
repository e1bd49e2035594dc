// Package align implements the RDF graph alignment case study of the
// paper's §5.4 (Table 9): aligning evolving versions of a graph whose node
// identities (URIs) persist over time. FSimb/FSimbj alignment is compared
// against re-implementations of k-bisimulation, Olap (bisimulation-based),
// GSA_NA, FINAL and EWS.
package align

import (
	"fmt"
	"math/rand"

	"fsim/internal/graph"
)

// Aligner aligns the nodes of g1 to node sets of g2; result[u] is Au, the
// set of g2 nodes u is aligned to (nil or empty = unaligned).
type Aligner interface {
	Name() string
	Align(g1, g2 *graph.Graph) [][]graph.NodeID
}

// F1 evaluates an alignment with the paper's formula:
// F1 = Σ_u 2·Pu·Ru / (|V1|·(Pu+Ru)), where Pu = 1/|Au| and Ru = 1 when Au
// contains the ground truth (identity here: node u of g1 is node u of g2),
// and Pu = Ru = 0 otherwise.
func F1(alignment [][]graph.NodeID, n2 int) float64 {
	n1 := len(alignment)
	if n1 == 0 {
		return 0
	}
	sum := 0.0
	for u, au := range alignment {
		if len(au) == 0 || u >= n2 {
			continue
		}
		hit := false
		for _, v := range au {
			if int(v) == u {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		pu := 1 / float64(len(au))
		ru := 1.0
		sum += 2 * pu * ru / (pu + ru)
	}
	return sum / float64(n1)
}

// Evolve produces the next version of a graph: node identities persist (the
// paper's URIs), growth adds new nodes wired into the existing structure,
// and a fraction of edges churn. This stands in for the paper's
// Guide-to-Pharmacology version snapshots, which are not available offline.
type Evolve struct {
	// NodeGrowth is the fraction of new nodes added (G1→G2 in the paper
	// grows ~4%).
	NodeGrowth float64
	// EdgeChurn is the fraction of edges removed and re-added elsewhere.
	EdgeChurn float64
	Seed      int64
}

// Apply returns the evolved graph. Existing node ids and labels are
// preserved; new nodes take fresh ids at the end.
func (e Evolve) Apply(g *graph.Graph) *graph.Graph {
	rng := rand.New(rand.NewSource(e.Seed))
	b := g.Builder()

	// Edge churn: delete churn·|E| random edges...
	edges := b.Edges()
	removed := int(e.EdgeChurn * float64(len(edges)))
	for i := 0; i < removed && len(edges) > 0; i++ {
		j := rng.Intn(len(edges))
		edges[j] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
	}
	nb := graph.NewBuilder()
	for u := 0; u < g.NumNodes(); u++ {
		nb.AddNode(g.NodeLabelName(graph.NodeID(u)))
	}
	for _, ed := range edges {
		nb.MustAddEdge(ed[0], ed[1])
	}
	// ...and add the same number of fresh edges.
	n := g.NumNodes()
	for i := 0; i < removed; i++ {
		nb.MustAddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	// Growth: new nodes copy an existing node's label and wire 1–3 edges.
	names := g.LabelNames()
	newNodes := int(e.NodeGrowth * float64(n))
	for i := 0; i < newNodes; i++ {
		id := nb.AddNode(names[rng.Intn(len(names))])
		deg := rng.Intn(3) + 1
		for d := 0; d < deg; d++ {
			other := graph.NodeID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				nb.MustAddEdge(id, other)
			} else {
				nb.MustAddEdge(other, id)
			}
		}
	}
	return nb.Build()
}

// Versions builds the three-version series (G1, G2, G3) of Table 9 from a
// base graph, evolving twice with the given parameters.
func Versions(base *graph.Graph, step Evolve) (*graph.Graph, *graph.Graph, *graph.Graph) {
	g2 := step.Apply(base)
	step2 := step
	step2.Seed++
	g3 := step2.Apply(g2)
	return base, g2, g3
}

// singletons lifts a per-node single assignment into the alignment shape.
func singletons(assign []graph.NodeID) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(assign))
	for u, v := range assign {
		if v >= 0 {
			out[u] = []graph.NodeID{v}
		}
	}
	return out
}

var _ = fmt.Sprintf // fmt used by sibling files in this package
