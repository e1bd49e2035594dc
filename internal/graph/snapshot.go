package graph

import "fmt"

// CSR is the raw serializable form of a Graph: the label table, the
// per-node interned labels and both adjacency directions in compressed
// sparse row layout. Graph.CSR and FromCSR round-trip a graph exactly —
// node ids, label ids and adjacency order all carry over — which is what
// the binary snapshot codec (internal/snapshot) persists.
//
// The slices returned by Graph.CSR are shared with the graph and must not
// be modified; FromCSR takes ownership of the slices it is given.
type CSR struct {
	LabelNames []string
	Labels     []Label

	OutAdj []NodeID
	OutOff []int32
	InAdj  []NodeID
	InOff  []int32
}

// CSR exposes the graph's raw CSR arrays for serialization.
func (g *Graph) CSR() CSR {
	return CSR{
		LabelNames: g.labelNames,
		Labels:     g.labels,
		OutAdj:     g.outAdj,
		OutOff:     g.outOff,
		InAdj:      g.inAdj,
		InOff:      g.inOff,
	}
}

// FromCSR reconstructs a Graph from its raw CSR form, re-deriving the
// label index and degree maxima. Every structural invariant the rest of
// the repository relies on is validated — offset monotonicity, sorted
// duplicate-free adjacency, in/out degree agreement, label ranges — so a
// corrupted or hand-built CSR yields a descriptive error instead of a
// graph that misbehaves later (HasEdge binary searches, candidate
// enumeration indexes by label id).
func FromCSR(c CSR) (*Graph, error) {
	n := len(c.Labels)
	if len(c.OutOff) != n+1 || len(c.InOff) != n+1 {
		return nil, fmt.Errorf("graph: CSR offsets want length %d, got out=%d in=%d", n+1, len(c.OutOff), len(c.InOff))
	}
	if len(c.OutAdj) != len(c.InAdj) {
		return nil, fmt.Errorf("graph: CSR adjacency lengths disagree: out=%d in=%d", len(c.OutAdj), len(c.InAdj))
	}
	seen := make(map[string]bool, len(c.LabelNames))
	for _, name := range c.LabelNames {
		if seen[name] {
			return nil, fmt.Errorf("graph: CSR label table repeats %q", name)
		}
		seen[name] = true
	}
	for u, l := range c.Labels {
		if int(l) < 0 || int(l) >= len(c.LabelNames) {
			return nil, fmt.Errorf("graph: CSR node %d has label id %d outside [0,%d)", u, l, len(c.LabelNames))
		}
	}
	if err := checkCSRAdjacency("out", c.OutOff, c.OutAdj, n); err != nil {
		return nil, err
	}
	if err := checkCSRAdjacency("in", c.InOff, c.InAdj, n); err != nil {
		return nil, err
	}
	// The two directions must describe the same edge set: count, per node,
	// how often it appears as a destination in the out-adjacency and
	// compare against its in-degree (an O(|V|+|E|) consistency pass).
	if n > 0 {
		inDeg := make([]int32, n)
		for _, v := range c.OutAdj {
			inDeg[v]++
		}
		for u := 0; u < n; u++ {
			if got := c.InOff[u+1] - c.InOff[u]; got != inDeg[u] {
				return nil, fmt.Errorf("graph: CSR in-degree of node %d is %d, out-adjacency implies %d", u, got, inDeg[u])
			}
		}
	}

	g := &Graph{
		labels:     c.Labels,
		outAdj:     c.OutAdj,
		outOff:     c.OutOff,
		inAdj:      c.InAdj,
		inOff:      c.InOff,
		labelNames: c.LabelNames,
		labelIndex: make(map[string]Label, len(c.LabelNames)),
	}
	for i, name := range c.LabelNames {
		g.labelIndex[name] = Label(i)
	}
	g.maxOut, g.maxIn = maxDegree(g.outOff), maxDegree(g.inOff)
	return g, nil
}

// checkCSRAdjacency validates one CSR direction: offsets start at 0, end at
// the adjacency length, never decrease, and every neighbor list is strictly
// sorted with ids in range (Build dedups edges, so strictness is an
// invariant, and Out/In binary searches depend on it).
func checkCSRAdjacency(dir string, off []int32, adj []NodeID, n int) error {
	if off[0] != 0 {
		return fmt.Errorf("graph: CSR %s-offsets start at %d, want 0", dir, off[0])
	}
	if int(off[n]) != len(adj) {
		return fmt.Errorf("graph: CSR %s-offsets end at %d, adjacency has %d entries", dir, off[n], len(adj))
	}
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		if lo > hi {
			return fmt.Errorf("graph: CSR %s-offsets decrease at node %d (%d > %d)", dir, u, lo, hi)
		}
		for pos := lo; pos < hi; pos++ {
			v := adj[pos]
			if int(v) < 0 || int(v) >= n {
				return fmt.Errorf("graph: CSR %s-neighbor %d of node %d outside [0,%d)", dir, v, u, n)
			}
			if pos > lo && adj[pos-1] >= v {
				return fmt.Errorf("graph: CSR %s-neighbors of node %d not strictly sorted at position %d", dir, u, pos-lo)
			}
		}
	}
	return nil
}
