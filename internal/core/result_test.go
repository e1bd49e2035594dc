package core

import (
	"math"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/strsim"
)

// TestRowAndTopKConsistency verifies the result accessors agree with each
// other across all three stores.
func TestRowAndTopKConsistency(t *testing.T) {
	g1 := dataset.RandomGraph(101, 25, 60, 3)
	g2 := dataset.RandomGraph(102, 30, 70, 3)
	configs := []Options{
		DefaultOptions(exact.S), // fully dense
		func() Options { // dense + bitmap
			o := DefaultOptions(exact.S)
			o.Theta = 0.6
			return o
		}(),
		func() Options { // hash map
			o := DefaultOptions(exact.S)
			o.Theta = 0.6
			o.DenseCapPairs = 1
			return o
		}(),
	}
	for ci, opts := range configs {
		res, err := Compute(g1, g2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g1.NumNodes(); u++ {
			row := res.Row(graph.NodeID(u))
			for _, e := range row {
				if !res.Contains(graph.NodeID(u), graph.NodeID(e.Index)) {
					t.Fatalf("config %d: Row returned unmaintained pair", ci)
				}
				if s := res.Score(graph.NodeID(u), graph.NodeID(e.Index)); s != e.Score {
					t.Fatalf("config %d: Row score %v != Score %v", ci, e.Score, s)
				}
			}
			top := res.TopK(graph.NodeID(u), 3)
			for i := 1; i < len(top); i++ {
				if top[i].Score > top[i-1].Score {
					t.Fatalf("config %d: TopK not sorted", ci)
				}
			}
			if len(row) > 0 {
				am, best := res.ArgMax(graph.NodeID(u))
				if len(am) == 0 {
					t.Fatalf("config %d: ArgMax empty for non-empty row", ci)
				}
				if len(top) > 0 && math.Abs(best-top[0].Score) > 1e-12 {
					t.Fatalf("config %d: ArgMax best %v != TopK best %v", ci, best, top[0].Score)
				}
			}
		}
	}
}

// TestCandidateCountConsistency verifies CandidateCount equals the number
// of pairs ForEach visits and the number Contains accepts.
func TestCandidateCountConsistency(t *testing.T) {
	g := dataset.RandomGraph(103, 30, 80, 4)
	opts := DefaultOptions(exact.BJ)
	opts.Theta = 1
	opts.Label = strsim.Indicator
	res, err := Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	res.ForEach(func(u, v graph.NodeID, _ float64) {
		visited++
		if !res.Contains(u, v) {
			t.Fatal("ForEach visited a non-candidate")
		}
	})
	if visited != res.CandidateCount {
		t.Fatalf("ForEach visited %d, CandidateCount %d", visited, res.CandidateCount)
	}
	contained := 0
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if res.Contains(graph.NodeID(u), graph.NodeID(v)) {
				contained++
			}
		}
	}
	if contained != res.CandidateCount {
		t.Fatalf("Contains accepts %d, CandidateCount %d", contained, res.CandidateCount)
	}
}

// TestLoadBalanceEven pins the Fig 9(a) diagnostics under the dynamic
// chunk queue. Which worker drains how many chunks depends on the
// runtime scheduler (on a single-core host one goroutine may drain the
// whole queue), so the invariants are: total work is conserved at every
// thread count (each chunk handed out exactly once), the balance factor
// over participating workers is well defined, and a single thread is
// exactly even.
func TestLoadBalanceEven(t *testing.T) {
	g := dataset.RandomGraph(104, 60, 150, 3)
	opts := DefaultOptions(exact.S)
	opts.Threads = 8
	res, err := Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if lb := res.LoadBalance(); lb < 1 {
		t.Fatalf("load balance %v below 1", lb)
	}
	single := DefaultOptions(exact.S)
	single.Threads = 1
	res1, err := Compute(g, g, single)
	if err != nil {
		t.Fatal(err)
	}
	if lb := res1.LoadBalance(); lb != 1 {
		t.Fatalf("single-thread balance should be 1, got %v", lb)
	}
	var total, total1 int64
	for _, w := range res.Work {
		total += w
	}
	for _, w := range res1.Work {
		total1 += w
	}
	if total != total1 {
		t.Fatalf("work not conserved across thread counts: 8 threads did %d units, 1 thread %d", total, total1)
	}
	if total == 0 {
		t.Fatal("no work recorded")
	}
}

// TestWStarExtremes verifies the Fig 4(b) endpoints analytically: at
// w* = 1 the score equals L(u, v) exactly.
func TestWStarExtremes(t *testing.T) {
	g := dataset.RandomGraph(105, 20, 50, 3)
	opts := DefaultOptions(exact.S)
	opts.WPlus, opts.WMinus = 0, 0 // w* = 1
	opts.Label = strsim.JaroWinkler
	res, err := Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	res.ForEach(func(u, v graph.NodeID, s float64) {
		want := strsim.JaroWinkler(g.NodeLabelName(u), g.NodeLabelName(v))
		if math.Abs(s-want) > 1e-12 {
			t.Fatalf("w*=1 score %v != L %v at (%d,%d)", s, want, u, v)
		}
	})
}

// TestDiagonalSelfSimilarity verifies FSim(u,u) = 1 on any graph compared
// with itself (u trivially χ-simulates itself; P2's sufficient direction).
func TestDiagonalSelfSimilarity(t *testing.T) {
	g := dataset.RandomGraph(106, 35, 90, 4)
	for _, variant := range exact.Variants {
		opts := DefaultOptions(variant)
		opts.Epsilon = 1e-9
		opts.RelativeEps = false
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			if s := res.Score(graph.NodeID(u), graph.NodeID(u)); math.Abs(s-1) > 1e-9 {
				t.Fatalf("%v: FSim(%d,%d) = %v, want 1", variant, u, u, s)
			}
		}
	}
}
