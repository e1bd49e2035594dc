package fsim

import (
	"bytes"
	"slices"
	"testing"
)

// TestServingCostCounts pins host-independent costs of the serving graph
// (the NELL stand-in at 1/90) under the serving options (bj, θ = 0.6, §3.4
// pruning with α = 0.3 and β = 0.5, twelve pinned iterations): the
// candidate map, the pruned pairs, the §3.4 bounds the candidate set
// retains (those of the pruned pairs some candidate reads), the bytes of
// its snapshot, and the maintenance counts of BenchmarkServingApply's
// change stream: adding the edge (0, 1) and removing it again. A change
// that moves one of them updates it here, so the move shows in the diff.
func TestServingCostCounts(t *testing.T) {
	const (
		candidates    = 3818
		pruned        = 27000
		retained      = 1546
		snapshotBytes = 115216
	)
	g := servingGraph()
	mt, err := NewMaintainer(g, servingOptions().WithPinnedIterations(12))
	if err != nil {
		t.Fatal(err)
	}
	cs := mt.Index().Candidates()
	if got := cs.NumCandidates(); got != candidates {
		t.Errorf("candidates = %d, want %d", got, candidates)
	}
	if got := cs.PrunedCount(); got != pruned {
		t.Errorf("pruned = %d, want %d", got, pruned)
	}
	if got := len(cs.Data().PrunedKeys); got != retained {
		t.Errorf("retained bounds = %d, want %d", got, retained)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(mt, &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != snapshotBytes {
		t.Errorf("snapshot = %d bytes, want %d", got, snapshotBytes)
	}

	u, v := NodeID(0), NodeID(1)
	if slices.Contains(g.Out(u), v) {
		t.Fatalf("the serving graph has the edge (%d, %d) the stream adds", u, v)
	}
	for _, want := range []struct {
		op ChangeOp
		st MaintainStats
	}{
		{OpAddEdge, MaintainStats{Applied: 1, Seeds: 13, Cone: 905, LocalPairs: 905, Iterations: 12}},
		{OpRemoveEdge, MaintainStats{Applied: 1, Seeds: 19, Cone: 911, LocalPairs: 911, Iterations: 12}},
	} {
		st, err := mt.Apply([]Change{{Op: want.op, U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		got := MaintainStats{Applied: st.Applied, Seeds: st.Seeds, Cone: st.Cone, LocalPairs: st.LocalPairs, Iterations: st.Iterations, Full: st.Full}
		if got != want.st {
			t.Errorf("%v %d %d: %+v, want %+v", want.op, u, v, got, want.st)
		}
	}
}
