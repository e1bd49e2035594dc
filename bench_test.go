package fsim

// Benchmarks: one per table and figure of the paper's evaluation (§5), each
// running the corresponding experiment harness on reduced ("Quick")
// workloads so `go test -bench=.` exercises every reproduction path in
// minutes. Full-scale runs come from `go run ./cmd/fsimbench <experiment>`.
//
// The Ablation* benchmarks isolate an engine design decision: greedy vs
// exact Hungarian mapping.

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/experiments"
	"fsim/internal/strsim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Out: io.Discard, Quick: true, Threads: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (Figure 1 example scores).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable5 regenerates Table 5 (initialization sensitivity).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig4 regenerates Figure 4 (θ and w* sensitivity).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (robustness to data errors).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (upper-bound sensitivity).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (runtime and candidates vs θ).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (datasets × optimizations).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (threads and density scaling).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable6 regenerates Table 6 (pattern-matching F1).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7 regenerates Table 7 (top-5 venues for WWW).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8 regenerates Table 8 (node-similarity nDCG).
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkTable9 regenerates Table 9 (graph-alignment F1).
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// benchGraph is the shared micro-benchmark workload.
func benchGraph() *Graph {
	spec := dataset.MustPaperSpec("NELL", 240)
	return spec.Generate()
}

// BenchmarkEngineVariants times one full FSim computation per variant on
// the quick NELL stand-in (the per-variant cost ordering of Fig 7).
func BenchmarkEngineVariants(b *testing.B) {
	g := benchGraph()
	for _, variant := range Variants {
		b.Run(variant.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions(variant)
				opts.Threads = 1
				opts.MaxIters = 10
				if _, err := Compute(g, g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMatching isolates the greedy-vs-Hungarian mapping
// choice inside the bj variant: exact matching restores
// Theorem 1's C3 at a large constant-factor cost.
func BenchmarkAblationMatching(b *testing.B) {
	g := dataset.MustPaperSpec("NELL", 480).Generate()
	for _, mode := range []struct {
		name  string
		exact bool
	}{{"greedy", false}, {"hungarian", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions(BJ)
				opts.Threads = 1
				opts.MaxIters = 6
				ops := OperatorsFor(BJ)
				ops.ExactMatching = mode.exact
				opts.Operators = &ops
				if _, err := Compute(g, g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaConvergence compares the exact worklist against the
// approximate stability threshold across all four variants on the quick
// NELL stand-in. "delta-exact" (DeltaEps = 0) is the default run: it skips
// exactly the pairs whose inputs are unchanged, so its scores equal a
// sweep of every pair bit for bit; "delta-1e-4" also freezes pairs whose
// per-iteration change dropped below 1e-4, trading a bounded score
// perturbation for a faster-collapsing frontier.
func BenchmarkDeltaConvergence(b *testing.B) {
	g := benchGraph()
	for _, variant := range Variants {
		for _, mode := range []struct {
			name     string
			deltaEps float64
		}{{"delta-exact", 0}, {"delta-1e-4", 1e-4}} {
			b.Run(variant.String()+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := DefaultOptions(variant)
					opts.Threads = 1
					opts.Epsilon = 1e-6
					opts.RelativeEps = false
					opts.MaxIters = 40
					opts.DeltaMode = true
					opts.DeltaEps = mode.deltaEps
					if _, err := Compute(g, g, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// servingOptions is the query-serving configuration shared by
// BenchmarkComputeFull and the localized-run benchmarks: the Remark 2
// label constraint
// plus §3.4 upper-bound pruning thin the candidate map, which is where
// localized queries pay off; at θ = 0 a query's closure spans most of
// the candidate map and the speedup disappears.
func servingOptions() Options {
	opts := DefaultOptions(BJ)
	opts.Threads = 1
	opts.Theta = 0.6
	opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.5}
	return opts
}

// BenchmarkComputeFull is the brute-force baseline of the query subsystem:
// one full all-pairs fixed point at the serving configuration.
func BenchmarkComputeFull(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, g, servingOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad is the warm-start counterpart of
// BenchmarkComputeFull: restoring a serving-configuration maintainer from
// its binary snapshot instead of re-running the fixed point. It also
// reports the snapshot's size.
func BenchmarkSnapshotLoad(b *testing.B) {
	mt, err := NewMaintainer(benchGraph(), servingOptions())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(mt, &buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
}

// BenchmarkLabelTable times the label layer alone: the Jaro–Winkler
// table over benchGraph's vocabulary against itself, as every candidate
// set of a self-similarity run builds it (NewCandidateSet, a snapshot
// load, a Patch that grows the vocabulary), at the serving θ = 0.6 and at
// θ = 0, where every cell is eligible. Beside the fill time it reports the
// layer's resident size: B/op (the transient fill buffers included) and
// cells, the values it keeps.
func BenchmarkLabelTable(b *testing.B) {
	names := benchGraph().LabelNames()
	for _, theta := range []float64{0.6, 0} {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("theta=%v/threads=%d", theta, threads), func(b *testing.B) {
				b.ReportAllocs()
				var tab *strsim.Table
				for i := 0; i < b.N; i++ {
					var err error
					if tab, err = strsim.NewTable(strsim.JaroWinkler, names, names, theta, threads); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(tab.Stored()), "cells")
			})
		}
	}
}

// servingGraph is the serving workload's graph, the NELL stand-in at 1/90
// scale.
func servingGraph() *Graph { return dataset.MustPaperSpec("NELL", 90).Generate() }

// BenchmarkCandidateSetServing times candidate construction alone on the
// serving workload's graph and options (bj, θ = 0.6, §3.4 pruning with
// α = 0.3 and β = 0.5), one thread: the label layer, then one candidate
// decision per label-eligible pair, most of them through the Eq. 6 bound,
// then the pass that keeps the bounds candidates read. It reports how many
// it keeps (retained).
func BenchmarkCandidateSetServing(b *testing.B) {
	g := servingGraph()
	opts := servingOptions()
	b.ReportAllocs()
	b.ResetTimer()
	var cs *core.CandidateSet
	for i := 0; i < b.N; i++ {
		var err error
		if cs, err = core.NewCandidateSet(g, g, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cs.Data().PrunedKeys)), "retained")
}

// BenchmarkTopK measures one TopK(u, 10) query against a prebuilt shared
// Index on the serving graph and configuration, with the served pinned
// budget of 12 iterations — the per-query cost of a localized fixed point
// after amortizing NewIndex.
func BenchmarkTopK(b *testing.B) {
	g := servingGraph()
	ix, err := NewIndex(g, g, servingOptions().WithPinnedIterations(12))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID((i * 97) % g.NumNodes())
		if _, err := ix.TopK(u, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingApply measures one single-edge Maintainer.Apply on the
// serving graph and configuration, with the served pinned budget of 12
// iterations: the candidate Patch, then a localized fixed point over the
// update's cone of influence. Operations alternate between adding an edge
// the graph lacks and removing it again, so every Apply changes the graph
// and the graph returns to its start every second one.
func BenchmarkServingApply(b *testing.B) {
	g := servingGraph()
	mt, err := NewMaintainer(g, servingOptions().WithPinnedIterations(12))
	if err != nil {
		b.Fatal(err)
	}
	u, v := NodeID(0), NodeID(1)
	for slices.Contains(g.Out(u), v) {
		v++
	}
	ops := [2]ChangeOp{OpAddEdge, OpRemoveEdge}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mt.Apply([]Change{{Op: ops[i%2], U: u, V: v}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySinglePair measures one Query(u, v) score lookup against a
// prebuilt shared Index at the serving configuration.
func BenchmarkQuerySinglePair(b *testing.B) {
	g := benchGraph()
	ix, err := NewIndex(g, g, servingOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID((i * 97) % g.NumNodes())
		v := NodeID((i * 31) % g.NumNodes())
		if _, err := ix.Query(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSimulation times the maximal-relation fixpoint per variant
// (the "yes-or-no" substrate the fractional scores are validated against).
func BenchmarkExactSimulation(b *testing.B) {
	g := dataset.RandomGraph(5, 60, 150, 3)
	for _, variant := range Variants {
		b.Run(variant.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.MaximalSimulation(g, g, variant)
			}
		})
	}
}

// BenchmarkUpperBoundBuild times candidate construction with Eq. 6 bounds
// (the one-off cost the {ub} optimization pays before iterating).
func BenchmarkUpperBoundBuild(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(BJ)
		opts.Threads = 1
		opts.MaxIters = 1
		opts.Epsilon = 1e-9
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0, Beta: 0.5}
		if _, err := Compute(g, g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
