package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// propertyOptions mirrors the dynamic suite's configuration cycle: all
// four variants, both candidate stores, θ and §3.4 shaping, with the
// iteration budget pinned so score equality is bitwise.
func propertyOptions(seed int64) core.Options {
	opts := core.DefaultOptions(exact.Variants[seed%4])
	opts.Threads = 1
	opts.Epsilon = 1e-300
	opts.RelativeEps = false
	opts.MaxIters = 12
	if seed%3 == 1 {
		opts.Theta = 0.5
	}
	if seed%5 == 2 {
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.4}
	}
	if seed%5 == 4 {
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0, Beta: 0.5}
	}
	if seed%2 == 1 {
		opts.DenseCapPairs = 1 // force the hash-map store
	}
	if seed%7 == 3 {
		opts.DeltaMode = true
	}
	return opts
}

// buildMaintainer computes a maintainer over a random graph and walks it
// through a few random update batches so the snapshot captures a non-zero
// version and a patched candidate component.
func buildMaintainer(t *testing.T, seed int64) *dynamic.Maintainer {
	t.Helper()
	n := 10 + int(seed%7)
	g := dataset.RandomGraph(seed*131+7, n, 3*n, 3)
	mt, err := dynamic.New(g, propertyOptions(seed))
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	rng := rand.New(rand.NewSource(seed*977 + 5))
	for b := 0; b < int(seed%3); b++ {
		batch := []graph.Change{
			{Op: graph.OpAddEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))},
			{Op: graph.OpRemoveEdge, U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n))},
		}
		if b == 1 {
			batch = append(batch, graph.Change{Op: graph.OpAddNode, Label: "zed"})
		}
		if _, err := mt.Apply(batch); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
	}
	return mt
}

// assertEqualState compares every observable of two maintainers over the
// full pair universe: graph shape and labels, candidate membership, §3.4
// stand-ins and bounds, maintained scores (bit-identical), rankings, and
// the graph-version counter.
func assertEqualState(t *testing.T, seed int64, want, got *dynamic.Maintainer) {
	t.Helper()
	gw, gg := want.Graph(), got.Graph()
	if gw.Stats() != gg.Stats() {
		t.Fatalf("seed %d: graph stats diverge: %v vs %v", seed, gw.Stats(), gg.Stats())
	}
	n := gw.NumNodes()
	for u := 0; u < n; u++ {
		if gw.NodeLabelName(graph.NodeID(u)) != gg.NodeLabelName(graph.NodeID(u)) {
			t.Fatalf("seed %d: node %d label %q vs %q", seed, u,
				gw.NodeLabelName(graph.NodeID(u)), gg.NodeLabelName(graph.NodeID(u)))
		}
	}
	equalAdj := func(a, b []graph.NodeID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for u := 0; u < n; u++ {
		if !equalAdj(gw.Out(graph.NodeID(u)), gg.Out(graph.NodeID(u))) ||
			!equalAdj(gw.In(graph.NodeID(u)), gg.In(graph.NodeID(u))) {
			t.Fatalf("seed %d: adjacency of node %d diverges", seed, u)
		}
	}

	if want.Version() != got.Version() {
		t.Fatalf("seed %d: version %d vs %d", seed, want.Version(), got.Version())
	}
	cw, cg := want.Index().Candidates(), got.Index().Candidates()
	if cw.NumCandidates() != cg.NumCandidates() || cw.PrunedCount() != cg.PrunedCount() {
		t.Fatalf("seed %d: candidate counts diverge: |Hc| %d vs %d, pruned %d vs %d",
			seed, cw.NumCandidates(), cg.NumCandidates(), cw.PrunedCount(), cg.PrunedCount())
	}
	vs := make([]graph.NodeID, n)
	for v := range vs {
		vs[v] = graph.NodeID(v)
	}
	for u := 0; u < n; u++ {
		bw, bg := cw.RowBounds(graph.NodeID(u), vs, nil), cg.RowBounds(graph.NodeID(u), vs, nil)
		for v := 0; v < n; v++ {
			uu, vv := graph.NodeID(u), graph.NodeID(v)
			if cw.Contains(uu, vv) != cg.Contains(uu, vv) {
				t.Fatalf("seed %d: candidate membership of (%d,%d) diverges", seed, u, v)
			}
			if cw.StandIn(uu, vv) != cg.StandIn(uu, vv) {
				t.Fatalf("seed %d: stand-in of (%d,%d): %v vs %v",
					seed, u, v, cw.StandIn(uu, vv), cg.StandIn(uu, vv))
			}
			if bw[v] != bg[v] {
				t.Fatalf("seed %d: Eq.6 bound of (%d,%d): %v vs %v", seed, u, v, bw[v], bg[v])
			}
			sw, err1 := want.Score(uu, vv)
			sg, err2 := got.Score(uu, vv)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: Score(%d,%d): %v / %v", seed, u, v, err1, err2)
			}
			if sw != sg {
				t.Fatalf("seed %d: score of (%d,%d): %v vs %v (diff %g)", seed, u, v, sw, sg, sw-sg)
			}
		}
	}
	for u := 0; u < n; u++ {
		tw, err1 := want.TopK(graph.NodeID(u), 5)
		tg, err2 := got.TopK(graph.NodeID(u), 5)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: TopK(%d): %v / %v", seed, u, err1, err2)
		}
		if len(tw) != len(tg) {
			t.Fatalf("seed %d: TopK(%d) lengths %d vs %d", seed, u, len(tw), len(tg))
		}
		for i := range tw {
			if tw[i] != tg[i] {
				t.Fatalf("seed %d: TopK(%d)[%d]: %+v vs %+v", seed, u, i, tw[i], tg[i])
			}
		}
	}
}

// TestRoundTripProperty is the snapshot subsystem's correctness property
// over 50 seeded configurations (all four variants, dense and hash-map
// candidate stores, θ and §3.4 shaping, versions advanced past zero by
// random update batches): LoadSnapshot(SaveSnapshot(x)) reproduces the
// graph, candidate membership, §3.4 stand-ins and bounds, bit-identical
// scores, rankings and the graph version.
func TestRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		mt := buildMaintainer(t, seed)
		var buf bytes.Buffer
		if err := Write(mt, &buf); err != nil {
			t.Fatalf("seed %d: Write: %v", seed, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: Read: %v", seed, err)
		}
		assertEqualState(t, seed, mt, got)
	}
}

// TestRoundTripStaysLive verifies a loaded maintainer is not a dead
// artifact: applying the same update batch to the original and the
// restored maintainer keeps them in lockstep (scores, version), i.e. the
// patched-in-place candidate component and score store survive the trip.
func TestRoundTripStaysLive(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 7, 12} {
		mt := buildMaintainer(t, seed)
		var buf bytes.Buffer
		if err := Write(mt, &buf); err != nil {
			t.Fatalf("seed %d: Write: %v", seed, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: Read: %v", seed, err)
		}
		n := mt.Graph().NumNodes()
		batch := []graph.Change{
			{Op: graph.OpAddNode, Label: "warm"},
			{Op: graph.OpAddEdge, U: 0, V: graph.NodeID(n)},
			{Op: graph.OpAddEdge, U: graph.NodeID(n - 1), V: 0},
		}
		if _, err := mt.Apply(batch); err != nil {
			t.Fatalf("seed %d: Apply original: %v", seed, err)
		}
		if _, err := got.Apply(batch); err != nil {
			t.Fatalf("seed %d: Apply restored: %v", seed, err)
		}
		assertEqualState(t, seed, mt, got)
	}
}

// TestSaveLoadFile exercises the file path: atomic save (no temp litter),
// load, and overwrite of an existing snapshot.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.fsnap")
	mt := buildMaintainer(t, 3)
	if err := Save(mt, path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertEqualState(t, 3, mt, got)

	// Saving again over the same path must replace it atomically.
	if _, err := mt.Apply([]graph.Change{{Op: graph.OpAddEdge, U: 0, V: 1}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := Save(mt, path); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	got2, err := Load(path)
	if err != nil {
		t.Fatalf("re-Load: %v", err)
	}
	assertEqualState(t, 3, mt, got2)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.fsnap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot directory should hold exactly state.fsnap, got %v", names)
	}
}

// TestSyncDirErrorPath covers the durability fix's failure branch: the
// post-rename directory sync must surface (not swallow) an error, since a
// Save whose directory entry never reached disk is not durable even though
// the rename itself succeeded.
func TestSyncDirErrorPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "gone")
	err := syncDir(missing)
	if err == nil {
		t.Fatal("syncDir on a missing directory succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want a not-exist error, got %v", err)
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
}

// TestLoadMissingFile keeps the cold-start path honest: a missing snapshot
// is an os error, not a corruption report.
func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.fsnap"))
	if err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want a not-exist error, got %v", err)
	}
}
