package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	labels     []Label
	labelNames []string
	labelIndex map[string]Label
	edges      [][2]NodeID
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labelIndex: make(map[string]Label)}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumEdges returns the number of edges added so far (duplicates included).
func (b *Builder) NumEdges() int { return len(b.edges) }

// InternLabel interns a label name and returns its id without adding a node.
func (b *Builder) InternLabel(name string) Label {
	if l, ok := b.labelIndex[name]; ok {
		return l
	}
	l := Label(len(b.labelNames))
	b.labelNames = append(b.labelNames, name)
	b.labelIndex[name] = l
	return l
}

// AddNode appends a node with the given label and returns its id.
func (b *Builder) AddNode(label string) NodeID {
	l := b.InternLabel(label)
	b.labels = append(b.labels, l)
	return NodeID(len(b.labels) - 1)
}

// AddNodes appends n nodes sharing one label; it returns the first new id.
func (b *Builder) AddNodes(n int, label string) NodeID {
	first := NodeID(len(b.labels))
	l := b.InternLabel(label)
	for i := 0; i < n; i++ {
		b.labels = append(b.labels, l)
	}
	return first
}

// SetLabel relabels an existing node.
func (b *Builder) SetLabel(u NodeID, label string) {
	b.labels[u] = b.InternLabel(label)
}

// Label returns the current label name of node u.
func (b *Builder) Label(u NodeID) string { return b.labelNames[b.labels[u]] }

// AddEdge appends the directed edge (u, v). Duplicate edges are removed at
// Build time; self-loops are kept (the paper's model does not forbid them).
func (b *Builder) AddEdge(u, v NodeID) error {
	n := NodeID(len(b.labels))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
	return nil
}

// MustAddEdge is AddEdge that panics on range errors; intended for
// programmatic construction where ids are known-valid.
func (b *Builder) MustAddEdge(u, v NodeID) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether (u, v) has been added (linear scan; intended for
// small builders and tests).
func (b *Builder) HasEdge(u, v NodeID) bool {
	for _, e := range b.edges {
		if e[0] == u && e[1] == v {
			return true
		}
	}
	return false
}

// RemoveEdge deletes one occurrence of (u, v) and reports whether it was
// present.
func (b *Builder) RemoveEdge(u, v NodeID) bool {
	for i, e := range b.edges {
		if e[0] == u && e[1] == v {
			b.edges[i] = b.edges[len(b.edges)-1]
			b.edges = b.edges[:len(b.edges)-1]
			return true
		}
	}
	return false
}

// Edges returns the accumulated edge list (shared; do not modify).
func (b *Builder) Edges() [][2]NodeID { return b.edges }

// Build finalizes the Builder into an immutable CSR Graph. Duplicate edges
// are merged. The Builder remains usable afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	g := &Graph{
		labels:     append([]Label(nil), b.labels...),
		labelNames: append([]string(nil), b.labelNames...),
		labelIndex: make(map[string]Label, len(b.labelIndex)),
	}
	for name, l := range b.labelIndex {
		g.labelIndex[name] = l
	}

	// Deduplicate edges.
	edges := append([][2]NodeID(nil), b.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	uniq := edges[:0]
	var prev [2]NodeID
	for i, e := range edges {
		if i == 0 || e != prev {
			uniq = append(uniq, e)
			prev = e
		}
	}
	edges = uniq
	m := len(edges)

	g.outOff = make([]int32, n+1)
	g.inOff = make([]int32, n+1)
	for _, e := range edges {
		g.outOff[e[0]+1]++
		g.inOff[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	g.outAdj = make([]NodeID, m)
	g.inAdj = make([]NodeID, m)
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	copy(outPos, g.outOff[:n])
	copy(inPos, g.inOff[:n])
	for _, e := range edges { // edges sorted by (src, dst): out lists come out sorted
		g.outAdj[outPos[e[0]]] = e[1]
		outPos[e[0]]++
	}
	// In-lists: fill by scanning edges sorted by src; dst buckets receive
	// sources in ascending order because edges are sorted by src first.
	for _, e := range edges {
		g.inAdj[inPos[e[1]]] = e[0]
		inPos[e[1]]++
	}
	g.maxOut, g.maxIn = maxDegree(g.outOff), maxDegree(g.inOff)
	return g
}
