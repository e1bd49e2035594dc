package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// applyReference applies changes one by one to MutableOf(g): the
// semantics Graph.Apply must reproduce.
func applyReference(g *Graph, changes []Change) (*Graph, []Change, error) {
	m := MutableOf(g)
	for _, c := range changes {
		if _, err := m.Apply(c); err != nil {
			return nil, nil, err
		}
	}
	return m.Snapshot(), m.Log(), nil
}

// cloneCSR deep-copies a graph's CSR arrays.
func cloneCSR(c CSR) CSR {
	return CSR{
		LabelNames: slices.Clone(c.LabelNames),
		Labels:     slices.Clone(c.Labels),
		OutAdj:     slices.Clone(c.OutAdj),
		OutOff:     slices.Clone(c.OutOff),
		InAdj:      slices.Clone(c.InAdj),
		InOff:      slices.Clone(c.InOff),
	}
}

// sameCSR reports the first CSR field in which got and want differ, or "".
func sameCSR(got, want CSR) string {
	switch {
	case !slices.Equal(got.LabelNames, want.LabelNames):
		return fmt.Sprintf("label names %q, want %q", got.LabelNames, want.LabelNames)
	case !slices.Equal(got.Labels, want.Labels):
		return fmt.Sprintf("labels %v, want %v", got.Labels, want.Labels)
	case !slices.Equal(got.OutAdj, want.OutAdj):
		return fmt.Sprintf("out-adjacency %v, want %v", got.OutAdj, want.OutAdj)
	case !slices.Equal(got.OutOff, want.OutOff):
		return fmt.Sprintf("out-offsets %v, want %v", got.OutOff, want.OutOff)
	case !slices.Equal(got.InAdj, want.InAdj):
		return fmt.Sprintf("in-adjacency %v, want %v", got.InAdj, want.InAdj)
	case !slices.Equal(got.InOff, want.InOff):
		return fmt.Sprintf("in-offsets %v, want %v", got.InOff, want.InOff)
	}
	return ""
}

// sameArray reports whether two slices start at the same backing array.
func sameArray[E any](a, b []E) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// checkApply asserts that g.Apply(changes) equals applyReference — the
// next graph field by field with its degree maxima and label index, the
// effective changes, the error — that g reads the same afterwards, and
// that the label tables are shared exactly when nothing was added to
// them. It returns the next graph, or nil on an error.
func checkApply(tb testing.TB, g *Graph, changes []Change) *Graph {
	tb.Helper()
	before, beforeIndex := cloneCSR(g.CSR()), maps.Clone(g.labelIndex)
	next, applied, err := g.Apply(changes)
	want, wantLog, wantErr := applyReference(g, changes)
	if diff := sameCSR(g.CSR(), before); diff != "" || !maps.Equal(g.labelIndex, beforeIndex) {
		tb.Fatalf("Apply(%v) wrote its receiver: %s", changes, diff)
	}
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || next != nil || applied != nil {
			tb.Fatalf("Apply(%v) = %v, %v, %v; want error %q", changes, next, applied, err, wantErr)
		}
		return nil
	}
	if err != nil {
		tb.Fatalf("Apply(%v): %v", changes, err)
	}
	if !slices.Equal(applied, wantLog) {
		tb.Fatalf("Apply(%v) applied %v, want %v", changes, applied, wantLog)
	}
	if diff := sameCSR(next.CSR(), want.CSR()); diff != "" {
		tb.Fatalf("Apply(%v): %s", changes, diff)
	}
	if next.Stats() != want.Stats() || !maps.Equal(next.labelIndex, want.labelIndex) {
		tb.Fatalf("Apply(%v): stats %v index %v, want %v %v", changes, next.Stats(), next.labelIndex, want.Stats(), want.labelIndex)
	}
	addsNode := slices.ContainsFunc(applied, func(c Change) bool { return c.Op == OpAddNode })
	addsLabel := next.NumLabels() > g.NumLabels()
	if shared := sameArray(next.labels, g.labels); shared == addsNode && g.NumNodes() > 0 {
		tb.Fatalf("Apply(%v): node labels shared = %v, a node added = %v", changes, shared, addsNode)
	}
	if shared := sameArray(next.labelNames, g.labelNames); shared == addsLabel && g.NumLabels() > 0 {
		tb.Fatalf("Apply(%v): label names shared = %v, a label added = %v", changes, shared, addsLabel)
	}
	if shared := reflect.ValueOf(next.labelIndex).UnsafePointer() == reflect.ValueOf(g.labelIndex).UnsafePointer(); shared == addsLabel {
		tb.Fatalf("Apply(%v): label index shared = %v, a label added = %v", changes, shared, addsLabel)
	}
	return next
}

// checkApplySiblings applies two batches to the same g and checks the
// first result reads the same after the second: successors sharing g's
// tables never write into each other.
func checkApplySiblings(tb testing.TB, g *Graph, first, second []Change) *Graph {
	tb.Helper()
	next := checkApply(tb, g, first)
	if next == nil {
		return nil
	}
	saved := cloneCSR(next.CSR())
	checkApply(tb, g, second)
	if diff := sameCSR(next.CSR(), saved); diff != "" {
		tb.Fatalf("applying %v to the same graph changed the result of %v: %s", second, first, diff)
	}
	return next
}

// applyLabels holds the labels of the random and fuzzed graphs (the first
// three) and of the nodes their batches add (all five).
var applyLabels = []string{"a", "b", "c", "d e", "f"}

// randomApplyGraph builds a graph of up to 11 nodes over the first three
// labels, self-loops and duplicate edges included.
func randomApplyGraph(rng *rand.Rand) *Graph {
	b := NewBuilder()
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		b.AddNode(applyLabels[rng.Intn(3)])
	}
	for i := 0; n > 0 && i < rng.Intn(3*n+1); i++ {
		b.MustAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// randomBatch draws up to eight changes against g: node additions under
// present and new labels, removals of present edges, self-loops, repeats
// of the previous change, an edge added and removed again, random edges
// present or absent, and now and then an out-of-range endpoint or an
// unknown op.
func randomBatch(rng *rand.Rand, g *Graph) []Change {
	n := g.NumNodes()
	node := func() NodeID { return NodeID(rng.Intn(n)) }
	var batch []Change
	for k := 1 + rng.Intn(8); len(batch) < k; {
		if n == 0 && rng.Intn(4) > 0 {
			batch = append(batch, Change{Op: OpAddNode, Label: applyLabels[rng.Intn(len(applyLabels))]})
			n++
			continue
		}
		switch r := rng.Intn(20); {
		case r < 3:
			label := applyLabels[rng.Intn(len(applyLabels))]
			if r == 0 {
				label = fmt.Sprintf("new %d", rng.Intn(3))
			}
			batch = append(batch, Change{Op: OpAddNode, Label: label})
			n++
		case r < 6 && g.NumEdges() > 0:
			u := NodeID(rng.Intn(g.NumNodes()))
			if out := g.Out(u); len(out) > 0 {
				batch = append(batch, Change{Op: OpRemoveEdge, U: u, V: out[rng.Intn(len(out))]})
			}
		case r < 8 && n > 0:
			u := node()
			batch = append(batch, Change{Op: OpAddEdge + ChangeOp(rng.Intn(2)), U: u, V: u})
		case r < 10 && len(batch) > 0:
			batch = append(batch, batch[len(batch)-1])
		case r < 12 && n > 0:
			u, v := node(), node()
			batch = append(batch, Change{Op: OpAddEdge, U: u, V: v}, Change{Op: OpRemoveEdge, U: u, V: v})
		case r == 12 && rng.Intn(8) == 0:
			bad := []Change{
				{Op: OpAddEdge, U: 0, V: NodeID(n)},
				{Op: OpRemoveEdge, U: NodeID(n + rng.Intn(3)), V: 0},
				{Op: OpAddEdge, U: -1, V: 0},
				{Op: ChangeOp(7)},
			}
			batch = append(batch, bad[rng.Intn(len(bad))])
		case n > 0:
			batch = append(batch, Change{Op: OpAddEdge + ChangeOp(rng.Intn(2)), U: node(), V: node()})
		}
	}
	return batch
}

// TestGraphApplyMatchesMutable checks Graph.Apply against the Mutable it
// replaces on random graphs and chains of random batches, applying a
// second batch to every graph of the chain to check that successors
// never write into each other or their predecessor.
func TestGraphApplyMatchesMutable(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomApplyGraph(rng)
		for step := 0; step < 25; step++ {
			if next := checkApplySiblings(t, g, randomBatch(rng, g), randomBatch(rng, g)); next != nil {
				g = next
			}
		}
	}
}

// TestGraphApplyCases pins the cases the random batches reach only now
// and then: the maximum out- and in-degree falling when a hub loses an
// edge, an edge added and removed in one batch (both logged), a batch
// that changes nothing (the receiver comes back), and an error after
// effective changes (nothing comes back).
func TestGraphApplyCases(t *testing.T) {
	b := NewBuilder()
	hub := b.AddNode("a")
	for i := 0; i < 3; i++ {
		v := b.AddNode("b")
		b.MustAddEdge(hub, v)
		b.MustAddEdge(v, hub)
	}
	g := b.Build()
	next := checkApply(t, g, []Change{{Op: OpRemoveEdge, U: hub, V: 1}, {Op: OpRemoveEdge, U: 2, V: hub}})
	if next.MaxOutDegree() != 2 || next.MaxInDegree() != 2 {
		t.Fatalf("max degrees %d/%d after the hub lost an edge each way, want 2/2", next.MaxOutDegree(), next.MaxInDegree())
	}
	flip := []Change{{Op: OpAddEdge, U: 1, V: 2}, {Op: OpRemoveEdge, U: 1, V: 2}}
	if _, applied, _ := g.Apply(flip); !reflect.DeepEqual(applied, flip) {
		t.Fatalf("add-then-remove applied %v, want both", applied)
	}
	checkApply(t, g, flip)
	if next, applied, err := g.Apply([]Change{{Op: OpAddEdge, U: hub, V: 1}, {Op: OpRemoveEdge, U: 1, V: 2}}); next != g || applied != nil || err != nil {
		t.Fatalf("no-op batch = %p, %v, %v; want the receiver", next, applied, err)
	}
	if next, _, err := g.Apply([]Change{{Op: OpAddNode, Label: "z"}, {Op: OpAddEdge, U: 4, V: 5}}); next != nil || err == nil {
		t.Fatalf("out-of-range batch = %v, %v; want an error", next, err)
	}
	checkApply(t, g, []Change{{Op: OpAddNode, Label: "z"}, {Op: OpAddEdge, U: 4, V: 4}, {Op: OpAddEdge, U: 4, V: 5}})
}

// decodeApply reads a graph and a change batch from fuzz bytes. Byte 0
// gives the node count (mod 8), the next byte per node its label (one of
// three), the next the edge count (mod 16) and two per edge its endpoints
// (mod the node count). The rest gives up to 64 changes, three bytes
// each: the op (mod 4: +n, +e, -e, or an unknown op), then a label (one
// of five, two of them new) or two endpoints in [-1, 10], so some fall out
// of range.
func decodeApply(data []byte) (*Graph, []Change) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	b := NewBuilder()
	n := next() % 8
	for i := 0; i < n; i++ {
		b.AddNode(applyLabels[next()%3])
	}
	for m := next() % 16; n > 0 && m > 0; m-- {
		b.MustAddEdge(NodeID(next()%n), NodeID(next()%n))
	}
	var changes []Change
	for len(data) > 0 && len(changes) < 64 {
		op, x, y := ChangeOp(next()%4), next(), next()
		switch op {
		case OpAddNode:
			changes = append(changes, Change{Op: op, Label: applyLabels[x%len(applyLabels)]})
		default:
			changes = append(changes, Change{Op: op, U: NodeID(x%12 - 1), V: NodeID(y%12 - 1)})
		}
	}
	return b.Build(), changes
}

// FuzzGraphApply checks Graph.Apply against MutableOf + Apply + Snapshot
// on fuzzed graphs and batches, as TestGraphApplyMatchesMutable does: the
// next graph, the effective changes, the error, an unwritten receiver,
// shared label tables, and a second batch (the same bytes read backwards)
// that leaves the first result as it was. Its seed corpus is in
// testdata/fuzz/FuzzGraphApply.
func FuzzGraphApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, changes := decodeApply(data)
		backward := slices.Clone(data)
		slices.Reverse(backward)
		_, second := decodeApply(backward)
		if next := checkApplySiblings(t, g, changes, second); next != nil {
			checkApply(t, next, second)
		}
	})
}
