package core

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fsim/internal/exact"
	"fsim/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden score matrices in testdata/")

// goldenGraph is a fixed 9-node graph with recurring and near-miss labels
// (exercising the Jaro-Winkler label similarity), a cycle, a diamond, a
// sink and a self-loop — enough structure that all four variants and both
// presets produce distinct, nontrivial matrices.
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder()
	labels := []string{
		"person", "person", "post", "post", "tag",
		"tags", // near-miss of "tag" under Jaro-Winkler
		"org", "person", "tag",
	}
	for _, l := range labels {
		b.AddNode(l)
	}
	edges := [][2]int{
		{0, 2}, {0, 3}, {1, 2}, {1, 6}, {2, 4}, {2, 5},
		{3, 4}, {3, 8}, {4, 6}, {5, 6}, {6, 0}, {7, 3},
		{7, 7}, // self-loop
		{8, 6},
	}
	for _, e := range edges {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// goldenMatrix is the serialized form of one pinned score matrix.
type goldenMatrix struct {
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	Scores []float64 `json:"scores"` // row-major, Score(u, v) at u*Cols+v
}

func matrixOf(res *Result, n1, n2 int) goldenMatrix {
	m := goldenMatrix{Rows: n1, Cols: n2, Scores: make([]float64, n1*n2)}
	for u := 0; u < n1; u++ {
		for v := 0; v < n2; v++ {
			m.Scores[u*n2+v] = res.Score(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return m
}

// goldenTolerance absorbs cross-architecture float variation (e.g. FMA
// contraction on arm64) while still flagging any genuine numeric drift,
// which moves scores by orders of magnitude more.
const goldenTolerance = 1e-10

func checkGolden(t *testing.T, name string, res *Result, n1, n2 int) {
	t.Helper()
	got := matrixOf(res, n1, n2)
	path := filepath.Join("testdata", "golden_"+name+".json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/core -run TestGolden -update`): %v", err)
	}
	var want goldenMatrix
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if want.Rows != got.Rows || want.Cols != got.Cols || len(want.Scores) != len(got.Scores) {
		t.Fatalf("%s: shape changed: got %dx%d, want %dx%d", path, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Scores {
		if math.Abs(want.Scores[i]-got.Scores[i]) > goldenTolerance {
			u, v := i/got.Cols, i%got.Cols
			t.Errorf("%s: Score(%d,%d) drifted: got %v, want %v", name, u, v, got.Scores[i], want.Scores[i])
		}
	}
}

// TestGoldenVariants pins the exact Compute score matrices of the fixed
// graph for all four χ-simulation variants, so engine refactors cannot
// silently change the numerics.
func TestGoldenVariants(t *testing.T) {
	g := goldenGraph()
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-9
		opts.RelativeEps = false
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, variant.String(), res, g.NumNodes(), g.NumNodes())
	}
}

// TestGoldenPresets pins the SimRank and RoleSim preset matrices (§4.3) on
// the same fixed graph.
func TestGoldenPresets(t *testing.T) {
	g := goldenGraph()
	n := g.NumNodes()
	for _, preset := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"simrank", func() (*Result, error) { return SimRank(g, 0.8, 12) }},
		{"rolesim", func() (*Result, error) { return RoleSim(g, 0.15, 12) }},
	} {
		res, err := preset.run()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, preset.name, res, n, n)
	}
}

// TestGoldenDeltaMode recomputes every golden variant under exact
// DeltaMode (DeltaEps = 0, which only records the worklist's trajectory)
// and requires the pinned matrices to match.
func TestGoldenDeltaMode(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are written by TestGoldenVariants")
	}
	g := goldenGraph()
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-9
		opts.RelativeEps = false
		opts.DeltaMode = true
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, variant.String(), res, g.NumNodes(), g.NumNodes())
	}
}
