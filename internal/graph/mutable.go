package graph

import "fmt"

// Mutable is the public editable node-labeled directed graph: node
// insertion and edge insertion/deletion in O(degree) with duplicate
// detection, an append-only change log of the effective mutations, and
// O(|V|+|E|) snapshots into the immutable CSR Graph the rest of the
// repository consumes. It is also the reference Graph.Apply is tested
// against: applying changes to MutableOf(g) and taking Snapshot and Log
// defines what g.Apply returns. The dynamic maintainer keeps no Mutable;
// it derives each graph version from the last with Graph.Apply.
//
// Adjacency is kept sorted per node on both directions, so Snapshot is a
// straight concatenation and HasEdge a binary search. Labels are interned
// append-only: node ids and label ids handed out by a Mutable stay valid in
// every later Snapshot, which is what lets downstream candidate structures
// be patched in place rather than rebuilt (see core.CandidateSet.Patch).
//
// A Mutable is not safe for concurrent use; callers serialize mutations.
type Mutable struct {
	labels     []Label
	labelNames []string
	labelIndex map[string]Label

	out, in  [][]NodeID // sorted neighbor lists
	numEdges int

	log []Change
}

// NewMutable returns an empty mutable graph.
func NewMutable() *Mutable {
	return &Mutable{labelIndex: make(map[string]Label)}
}

// MutableOf returns a mutable copy of g. The copy shares nothing with g;
// node ids, label ids and adjacency carry over unchanged, and the change
// log starts empty.
func MutableOf(g *Graph) *Mutable {
	m := NewMutable()
	m.labelNames = append(m.labelNames, g.labelNames...)
	for name, l := range g.labelIndex {
		m.labelIndex[name] = l
	}
	m.labels = append(m.labels, g.labels...)
	n := g.NumNodes()
	m.out = make([][]NodeID, n)
	m.in = make([][]NodeID, n)
	for u := 0; u < n; u++ {
		m.out[u] = append([]NodeID(nil), g.Out(NodeID(u))...)
		m.in[u] = append([]NodeID(nil), g.In(NodeID(u))...)
	}
	m.numEdges = g.NumEdges()
	return m
}

// NumNodes returns |V|.
func (m *Mutable) NumNodes() int { return len(m.labels) }

// NumEdges returns |E|.
func (m *Mutable) NumEdges() int { return m.numEdges }

// Label returns the label name of node u.
func (m *Mutable) Label(u NodeID) string { return m.labelNames[m.labels[u]] }

// Out returns the sorted out-neighbors of u (shared; do not modify).
func (m *Mutable) Out(u NodeID) []NodeID { return m.out[u] }

// In returns the sorted in-neighbors of u (shared; do not modify).
func (m *Mutable) In(u NodeID) []NodeID { return m.in[u] }

// AddNode appends a node with the given label and returns its id. The
// change is logged.
func (m *Mutable) AddNode(label string) NodeID {
	l, ok := m.labelIndex[label]
	if !ok {
		l = Label(len(m.labelNames))
		m.labelNames = append(m.labelNames, label)
		m.labelIndex[label] = l
	}
	m.labels = append(m.labels, l)
	m.out = append(m.out, nil)
	m.in = append(m.in, nil)
	m.log = append(m.log, Change{Op: OpAddNode, Label: label})
	return NodeID(len(m.labels) - 1)
}

// searchNeighbors returns the insertion position of v in the sorted list
// and whether v is present.
func searchNeighbors(adj []NodeID, v NodeID) (int, bool) {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(adj) && adj[lo] == v
}

func insertNeighbor(adj []NodeID, pos int, v NodeID) []NodeID {
	adj = append(adj, 0)
	copy(adj[pos+1:], adj[pos:])
	adj[pos] = v
	return adj
}

func removeNeighbor(adj []NodeID, pos int) []NodeID {
	copy(adj[pos:], adj[pos+1:])
	return adj[:len(adj)-1]
}

// AddEdge inserts the directed edge (u, v) and reports whether it was
// absent before (the effective case, which is logged). Self-loops are
// allowed, duplicates are no-ops.
func (m *Mutable) AddEdge(u, v NodeID) (bool, error) {
	if err := m.checkRange(u, v); err != nil {
		return false, err
	}
	pos, present := searchNeighbors(m.out[u], v)
	if present {
		return false, nil
	}
	m.out[u] = insertNeighbor(m.out[u], pos, v)
	ipos, _ := searchNeighbors(m.in[v], u)
	m.in[v] = insertNeighbor(m.in[v], ipos, u)
	m.numEdges++
	m.log = append(m.log, Change{Op: OpAddEdge, U: u, V: v})
	return true, nil
}

// RemoveEdge deletes the directed edge (u, v) and reports whether it was
// present (the effective case, which is logged).
func (m *Mutable) RemoveEdge(u, v NodeID) (bool, error) {
	if err := m.checkRange(u, v); err != nil {
		return false, err
	}
	pos, present := searchNeighbors(m.out[u], v)
	if !present {
		return false, nil
	}
	m.out[u] = removeNeighbor(m.out[u], pos)
	ipos, _ := searchNeighbors(m.in[v], u)
	m.in[v] = removeNeighbor(m.in[v], ipos)
	m.numEdges--
	m.log = append(m.log, Change{Op: OpRemoveEdge, U: u, V: v})
	return true, nil
}

// HasEdge reports whether (u, v) is present.
func (m *Mutable) HasEdge(u, v NodeID) bool {
	_, present := searchNeighbors(m.out[u], v)
	return present
}

func (m *Mutable) checkRange(u, v NodeID) error {
	n := NodeID(len(m.labels))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	return nil
}

// Apply dispatches one parsed Change. Redundant edge changes (adding a
// present edge, removing an absent one) are accepted as no-ops, so an
// update stream can be replayed idempotently; range errors are reported.
// It returns whether the change took effect.
func (m *Mutable) Apply(c Change) (bool, error) {
	switch c.Op {
	case OpAddNode:
		m.AddNode(c.Label)
		return true, nil
	case OpAddEdge:
		return m.AddEdge(c.U, c.V)
	case OpRemoveEdge:
		return m.RemoveEdge(c.U, c.V)
	}
	return false, fmt.Errorf("graph: unknown change op %v", c.Op)
}

// Log returns the effective changes recorded since construction or the
// last TakeLog (shared; do not modify).
func (m *Mutable) Log() []Change { return m.log }

// TakeLog returns the recorded changes and resets the log.
func (m *Mutable) TakeLog() []Change {
	log := m.log
	m.log = nil
	return log
}

// Snapshot freezes the current state into an immutable CSR Graph in
// O(|V|+|E|). The Mutable remains usable; later mutations do not affect
// the snapshot.
func (m *Mutable) Snapshot() *Graph {
	n := len(m.labels)
	g := &Graph{
		labels:     append([]Label(nil), m.labels...),
		labelNames: append([]string(nil), m.labelNames...),
		labelIndex: make(map[string]Label, len(m.labelIndex)),
	}
	for name, l := range m.labelIndex {
		g.labelIndex[name] = l
	}
	g.outOff = make([]int32, n+1)
	g.inOff = make([]int32, n+1)
	g.outAdj = make([]NodeID, 0, m.numEdges)
	g.inAdj = make([]NodeID, 0, m.numEdges)
	for u := 0; u < n; u++ {
		g.outAdj = append(g.outAdj, m.out[u]...)
		g.outOff[u+1] = int32(len(g.outAdj))
		g.inAdj = append(g.inAdj, m.in[u]...)
		g.inOff[u+1] = int32(len(g.inAdj))
		if d := len(m.out[u]); d > g.maxOut {
			g.maxOut = d
		}
		if d := len(m.in[u]); d > g.maxIn {
			g.maxIn = d
		}
	}
	return g
}
