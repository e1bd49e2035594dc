package core

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// determinismThreads is the thread sweep every determinism property runs:
// under- and over-subscribed relative to any plausible host.
var determinismThreads = []int{1, 2, 4, 8}

// scoresOf flattens a result into the deterministic ForEach order.
func scoresOf(res *Result) []float64 {
	out := make([]float64, 0, res.CandidateCount)
	res.ForEach(func(u, v graph.NodeID, s float64) { out = append(out, s) })
	return out
}

// requireBitIdentical compares two score vectors bit for bit; math.Float64bits
// distinguishes even -0 from 0 and NaN payloads.
func requireBitIdentical(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: score count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: score %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// determinismGraph returns the property's workload: the graph file named by
// FSIM_DETERMINISM_GRAPH when set (the CI race smoke generates a ~10⁴-edge
// power-law graph with fsimgen and runs this property against it under
// -race), else a smaller seeded in-process generation that keeps the
// everyday suite fast.
func determinismGraph(t *testing.T) *graph.Graph {
	t.Helper()
	if path := os.Getenv("FSIM_DETERMINISM_GRAPH"); path != "" {
		g, err := graph.ReadFile(path)
		if err != nil {
			t.Fatalf("FSIM_DETERMINISM_GRAPH: %v", err)
		}
		return g
	}
	spec := dataset.PowerLaw(500, 3000, 100, 1.1, 11)
	return spec.Generate()
}

// TestParallelDeterminism is the dynamic chunk queue's core property: for
// every variant and both stores — by default, under exact DeltaMode, at
// DeltaEps = 1e-4 (the approximate threshold freezes pairs, so precise
// propagation runs) and damped (a dirty pair re-enters the worklist on its
// own) — Compute returns bit-identical scores at every thread count, and
// under DeltaMode the same active-pair trajectory. The chunk schedule
// (which worker claims which chunk, and in what order) varies freely
// across runs; the synchronous Jacobi update makes the scores
// schedule-independent, and this test pins that contract. Run under -race
// in CI against a fsimgen-generated graph (see determinismGraph).
func TestParallelDeterminism(t *testing.T) {
	g := determinismGraph(t)
	threads := determinismThreads
	if os.Getenv("FSIM_DETERMINISM_GRAPH") != "" {
		// The CI graph is ~10x the in-process one and runs under -race
		// (another ~10x); two thread counts keep the job inside its budget
		// while still crossing the serial/parallel schedule boundary.
		threads = []int{1, 4}
	}
	// Pairs take more than five rounds to settle below 1e-4, so the
	// approximate rows run longer; they stop once the worklist empties.
	approx := func(o *Options) { o.DeltaMode = true; o.DeltaEps = 1e-4; o.MaxIters = 12 }
	kinds := []struct {
		name  string
		tweak func(o *Options)
	}{
		{"dense-full", func(o *Options) {}},
		{"sparse-full", func(o *Options) { o.DenseCapPairs = 1 }},
		{"dense-delta", func(o *Options) { o.DeltaMode = true }},
		{"sparse-delta", func(o *Options) { o.DenseCapPairs = 1; o.DeltaMode = true }},
		{"dense-delta-1e-4", approx},
		{"sparse-delta-1e-4", func(o *Options) { o.DenseCapPairs = 1; approx(o) }},
		{"dense-delta-damped", func(o *Options) { o.DeltaMode = true; o.Damping = 0.5 }},
		{"sparse-delta-damped", func(o *Options) { o.DenseCapPairs = 1; o.DeltaMode = true; o.Damping = 0.5 }},
	}
	for _, variant := range exact.Variants {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%v/%s", variant, kind.name), func(t *testing.T) {
				var want []float64
				var wantActive []int
				for _, threadCount := range threads {
					opts := DefaultOptions(variant)
					opts.Theta = 0.6
					opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
					opts.Epsilon = 1e-300 // pin the iteration count
					opts.RelativeEps = false
					opts.MaxIters = 5
					opts.Threads = threadCount
					kind.tweak(&opts)
					res, err := Compute(g, g, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := scoresOf(res)
					if want == nil {
						want, wantActive = got, res.ActivePairs
						if len(want) == 0 {
							t.Fatal("empty candidate set: the property would be vacuous")
						}
						if n := len(wantActive); opts.DeltaEps > 0 && wantActive[n-1] >= res.CandidateCount {
							t.Fatalf("the frontier never thinned: %v of %d pairs", wantActive, res.CandidateCount)
						}
						continue
					}
					requireBitIdentical(t, want, got, fmt.Sprintf("threads=%d", threadCount))
					if !reflect.DeepEqual(wantActive, res.ActivePairs) {
						t.Fatalf("threads=%d: active pairs %v, want %v", threadCount, res.ActivePairs, wantActive)
					}
				}
			})
		}
	}
}

// TestParallelDeterminismAllPairs covers the remaining scheduler path: the
// θ=0 unpruned dense fast case chunks contiguous rows rather than candidate
// positions.
func TestParallelDeterminismAllPairs(t *testing.T) {
	g := dataset.RandomGraph(17, 80, 400, 5)
	var want []float64
	for _, threads := range determinismThreads {
		opts := DefaultOptions(exact.BJ)
		opts.Epsilon = 1e-300
		opts.RelativeEps = false
		opts.MaxIters = 5
		opts.Threads = threads
		res, err := Compute(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := scoresOf(res)
		if want == nil {
			want = got
			continue
		}
		requireBitIdentical(t, want, got, fmt.Sprintf("threads=%d", threads))
	}
}

// TestParallelDeterminismCandidates is the row-chunked construction's
// property: at every thread count NewCandidateSet yields the same candidate
// data (pairs, row offsets, retained bounds), pruned count and stand-ins,
// for both stores, with and without the label constraint and with and
// without retained bounds; and NewCandidateSetFromData rebuilding one
// thread's data on eight threads reproduces it. A 3-node graph has fewer
// rows than most of the thread counts. Run under -race in CI against a
// fsimgen-generated graph (see determinismGraph).
func TestParallelDeterminismCandidates(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"workload", determinismGraph(t)},
		{"3-node", dataset.RandomGraph(3, 3, 4, 2)},
	}
	for _, gc := range graphs {
		for _, sparse := range []bool{false, true} {
			for _, theta := range []float64{0, 0.6} {
				for _, alpha := range []float64{0, 0.3} {
					name := fmt.Sprintf("%s/sparse=%v/theta=%v/alpha=%v", gc.name, sparse, theta, alpha)
					t.Run(name, func(t *testing.T) {
						checkCandidateDeterminism(t, gc.g, sparse, theta, alpha)
					})
				}
			}
		}
	}
}

func checkCandidateDeterminism(t *testing.T, g *graph.Graph, sparse bool, theta, alpha float64) {
	opts := DefaultOptions(exact.BJ)
	opts.Theta = theta
	opts.UpperBoundOpt = &UpperBound{Alpha: alpha, Beta: 0.5}
	if sparse {
		opts.DenseCapPairs = 1
	}
	build := func(threads int) *CandidateSet {
		o := opts
		o.Threads = threads
		cs, err := NewCandidateSet(g, g, o)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	standIns := func(cs *CandidateSet) []float64 {
		var out []float64
		for u := 0; u < cs.n1; u++ {
			forEachStandIn(cs, graph.NodeID(u), func(v graph.NodeID, s float64) { out = append(out, float64(u), float64(v), s) })
		}
		return out
	}
	ref := build(1)
	want, wantStandIns := ref.Data(), standIns(ref)
	if len(want.CandPairs) == 0 {
		t.Fatal("empty candidate set: the property would be vacuous")
	}
	for _, threads := range determinismThreads[1:] {
		cs := build(threads)
		if !reflect.DeepEqual(cs.Data(), want) {
			t.Fatalf("threads=%d: candidate data differs from threads=1", threads)
		}
		if cs.PrunedCount() != ref.PrunedCount() {
			t.Fatalf("threads=%d: pruned count %d, want %d", threads, cs.PrunedCount(), ref.PrunedCount())
		}
		requireBitIdentical(t, wantStandIns, standIns(cs), fmt.Sprintf("threads=%d stand-ins", threads))
	}
	o := opts
	o.Threads = 8
	cs, err := NewCandidateSetFromData(g, g, o, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs.Data(), want) {
		t.Fatal("NewCandidateSetFromData at threads=8 does not reproduce the threads=1 data")
	}
}
