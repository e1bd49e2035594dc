// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each ExperimentFn prints the same rows/series the paper
// reports (on the synthetic stand-in datasets of internal/dataset) and is
// reachable both from cmd/fsimbench and from the repository-root
// benchmarks.
//
// The experiment ids map to paper artifacts as follows:
//
//	table2  Figure 1 example scores            (§2, Table 2)
//	table5  initialization sensitivity         (§5.2, Table 5)
//	fig4    θ and w* sensitivity               (§5.2, Figure 4)
//	fig5    robustness to data errors          (§5.2, Figure 5)
//	fig6    upper-bound sensitivity            (§5.2, Figure 6)
//	fig7    runtime / candidates vs θ          (§5.3, Figure 7)
//	fig8    datasets × optimizations           (§5.3, Figure 8)
//	fig9    parallelism and density            (§5.3, Figure 9)
//	table6  pattern matching F1                (§5.4, Table 6)
//	table7  top-5 venues for WWW               (§5.4, Table 7)
//	table8  node-similarity nDCG               (§5.4, Table 8)
//	table9  graph-alignment F1                 (§5.4, Table 9)
//
// Beyond the paper, two engine experiments write machine-readable
// BENCH_*.json artifacts: delta (the exact worklist against the
// approximate DeltaEps threshold) and scale (the engine's thread and size sweep). The
// serving layers above the engine are measured by the bench module's
// fsimperf, not here.
package experiments
