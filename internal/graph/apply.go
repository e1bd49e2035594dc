package graph

import (
	"fmt"
	"maps"
	"slices"
)

// Apply returns the graph that applying changes in order to g produces,
// and the effective changes among them: exactly what applying them one by
// one to MutableOf(g) and taking its Snapshot and Log would give. "+n"
// interns its label, adding a present edge or removing an absent one is a
// no-op, self-loops are allowed, and every edge is range-checked against
// the node count the changes before it have grown. On an error Apply
// returns no graph.
//
// g is never written. Only the touched nodes' neighbour rows are copied
// and edited; the next CSR is then assembled in one O(|V|+|E|) pass that
// copies each run of untouched rows as a block. The next graph shares
// g's label tables, copying the per-node labels only when a node is added
// and the name table and index only when a label is new. When no change
// takes effect, Apply returns g itself.
func (g *Graph) Apply(changes []Change) (next *Graph, applied []Change, err error) {
	n := len(g.labels)
	// Clipped to their length, the shared tables are copied by the first
	// append, never extended under g.
	labels, labelNames := slices.Clip(g.labels), slices.Clip(g.labelNames)
	labelIndex := g.labelIndex
	out := make(map[NodeID][]NodeID) // copy-on-write rows, by node
	in := make(map[NodeID][]NodeID)
	row := func(rows map[NodeID][]NodeID, off []int32, adj []NodeID, u NodeID) []NodeID {
		if r, ok := rows[u]; ok {
			return r
		}
		if int(u) < n {
			return slices.Clone(adj[off[u]:off[u+1]])
		}
		return nil
	}
	numEdges := len(g.outAdj)
	for _, c := range changes {
		switch c.Op {
		case OpAddNode:
			l, ok := labelIndex[c.Label]
			if !ok {
				if len(labelNames) == len(g.labelNames) {
					labelIndex = maps.Clone(g.labelIndex)
				}
				l = Label(len(labelNames))
				labelNames = append(labelNames, c.Label)
				labelIndex[c.Label] = l
			}
			labels = append(labels, l)
		case OpAddEdge, OpRemoveEdge:
			if m := NodeID(len(labels)); c.U < 0 || c.U >= m || c.V < 0 || c.V >= m {
				return nil, nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", c.U, c.V, m)
			}
			ru := row(out, g.outOff, g.outAdj, c.U)
			pos, present := searchNeighbors(ru, c.V)
			if present == (c.Op == OpAddEdge) {
				continue
			}
			rv := row(in, g.inOff, g.inAdj, c.V)
			ipos, _ := searchNeighbors(rv, c.U)
			if c.Op == OpAddEdge {
				out[c.U] = insertNeighbor(ru, pos, c.V)
				in[c.V] = insertNeighbor(rv, ipos, c.U)
				numEdges++
			} else {
				out[c.U] = removeNeighbor(ru, pos)
				in[c.V] = removeNeighbor(rv, ipos)
				numEdges--
			}
		default:
			return nil, nil, fmt.Errorf("graph: unknown change op %v", c.Op)
		}
		applied = append(applied, c)
	}
	if len(applied) == 0 {
		return g, nil, nil
	}
	next = &Graph{
		labels:     labels,
		labelNames: labelNames,
		labelIndex: labelIndex,
	}
	next.outOff, next.outAdj = spliceRows(g.outOff, g.outAdj, len(labels), numEdges, out)
	next.inOff, next.inAdj = spliceRows(g.inOff, g.inAdj, len(labels), numEdges, in)
	next.maxOut, next.maxIn = maxDegree(next.outOff), maxDegree(next.inOff)
	return next, applied, nil
}

// spliceRows assembles one CSR direction of n nodes and m edges from the
// old direction (off, adj) with the given rows replaced: each run of
// untouched old rows is copied as one block and its offsets shifted;
// untouched nodes past the old node count have no neighbours.
func spliceRows(off []int32, adj []NodeID, n, m int, rows map[NodeID][]NodeID) ([]int32, []NodeID) {
	oldN := len(off) - 1
	touched := make([]NodeID, 0, len(rows))
	for u := range rows {
		touched = append(touched, u)
	}
	slices.Sort(touched)
	touched = append(touched, NodeID(n)) // sentinel: the run after the last row
	nextOff := make([]int32, n+1)
	nextAdj := make([]NodeID, 0, m)
	from := 0 // first node of the current untouched run
	for _, t := range touched {
		to := min(int(t), oldN)
		if from < to {
			shift := int32(len(nextAdj)) - off[from]
			nextAdj = append(nextAdj, adj[off[from]:off[to]]...)
			for u := from; u < to; u++ {
				nextOff[u+1] = off[u+1] + shift
			}
		}
		for u := max(from, to); u < int(t); u++ { // untouched new nodes
			nextOff[u+1] = int32(len(nextAdj))
		}
		if int(t) == n {
			break
		}
		nextAdj = append(nextAdj, rows[t]...)
		nextOff[t+1] = int32(len(nextAdj))
		from = int(t) + 1
	}
	return nextOff, nextAdj
}

// maxDegree returns the largest row length of a CSR offset array.
func maxDegree(off []int32) int {
	d := 0
	for u := 1; u < len(off); u++ {
		d = max(d, int(off[u]-off[u-1]))
	}
	return d
}
