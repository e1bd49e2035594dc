// Package graph implements the node-labeled directed graph data model of
// the FSimχ paper (§2): G = (V, E, ℓ) with out-/in-neighbor access, degree
// statistics, traversal, induced subgraphs and balls, plus text and DOT
// serialization.
//
// A Graph is immutable once built; construct one with a Builder, and
// derive an edited version with Apply, which leaves the original as it
// was (Mutable is the editable form). Adjacency is stored in compressed
// sparse row (CSR) form, with both out- and in-adjacency materialized
// because every simulation variant in the paper consults both N+ and N−.
package graph

import "fmt"

// NodeID identifies a node within a single Graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1.
type NodeID int32

// Label is an interned node-label identifier, valid within one Graph.
// Cross-graph label comparison goes through LabelName (see strsim.Table).
type Label int32

// Graph is an immutable node-labeled directed graph in CSR form.
type Graph struct {
	labels []Label // node -> interned label

	outAdj []NodeID // concatenated out-neighbor lists, sorted per node
	outOff []int32  // len = n+1; out-neighbors of u are outAdj[outOff[u]:outOff[u+1]]
	inAdj  []NodeID
	inOff  []int32

	labelNames []string
	labelIndex map[string]Label

	maxOut, maxIn int
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns |E| (after duplicate-edge removal at build time).
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// NumLabels returns |Σ|, the number of distinct labels interned in g.
func (g *Graph) NumLabels() int { return len(g.labelNames) }

// Label returns the interned label of node u.
func (g *Graph) Label(u NodeID) Label { return g.labels[u] }

// LabelName returns the string form of an interned label.
func (g *Graph) LabelName(l Label) string { return g.labelNames[l] }

// NodeLabelName returns the string label of node u.
func (g *Graph) NodeLabelName(u NodeID) string { return g.labelNames[g.labels[u]] }

// LabelID returns the interned id for name and whether it exists in g.
func (g *Graph) LabelID(name string) (Label, bool) {
	l, ok := g.labelIndex[name]
	return l, ok
}

// LabelNames returns the label id -> name table. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) LabelNames() []string { return g.labelNames }

// Out returns the out-neighbors N+(u) as a sorted shared slice; callers
// must not modify it.
func (g *Graph) Out(u NodeID) []NodeID { return g.outAdj[g.outOff[u]:g.outOff[u+1]] }

// In returns the in-neighbors N−(u) as a sorted shared slice; callers must
// not modify it.
func (g *Graph) In(u NodeID) []NodeID { return g.inAdj[g.inOff[u]:g.inOff[u+1]] }

// OutDegree returns d+(u).
func (g *Graph) OutDegree(u NodeID) int { return int(g.outOff[u+1] - g.outOff[u]) }

// InDegree returns d−(u).
func (g *Graph) InDegree(u NodeID) int { return int(g.inOff[u+1] - g.inOff[u]) }

// MaxOutDegree returns D+, the maximum out-degree over all nodes.
func (g *Graph) MaxOutDegree() int { return g.maxOut }

// MaxInDegree returns D−, the maximum in-degree over all nodes.
func (g *Graph) MaxInDegree() int { return g.maxIn }

// AvgDegree returns |E| / |V| (the paper's dG), or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes())
}

// HasEdge reports whether the edge (u, v) is present, by binary search over
// the sorted out-adjacency of u.
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.Out(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// Edges calls fn for every edge (u, v); it stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			if !fn(NodeID(u), v) {
				return
			}
		}
	}
}

// Stats summarizes a graph in the form of the paper's Table 4.
type Stats struct {
	Nodes     int
	Edges     int
	Labels    int
	AvgDegree float64
	MaxOut    int
	MaxIn     int
}

// Stats returns the Table 4-style statistics of g.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		Labels:    g.NumLabels(),
		AvgDegree: g.AvgDegree(),
		MaxOut:    g.maxOut,
		MaxIn:     g.maxIn,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d |Σ|=%d d=%.1f D+=%d D-=%d",
		s.Nodes, s.Edges, s.Labels, s.AvgDegree, s.MaxOut, s.MaxIn)
}

// Builder returns a mutable copy of g for further editing (used by error
// injection and densification).
func (g *Graph) Builder() *Builder {
	b := NewBuilder()
	b.labelNames = append(b.labelNames, g.labelNames...)
	for name, l := range g.labelIndex {
		b.labelIndex[name] = l
	}
	b.labels = append(b.labels, g.labels...)
	b.edges = make([][2]NodeID, 0, g.NumEdges())
	g.Edges(func(u, v NodeID) bool {
		b.edges = append(b.edges, [2]NodeID{u, v})
		return true
	})
	return b
}
