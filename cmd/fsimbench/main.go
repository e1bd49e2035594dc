// Command fsimbench regenerates the tables and figures of the paper's
// evaluation section (§5) on the synthetic stand-in datasets.
//
// Usage:
//
//	fsimbench [-quick] [-threads N] [-seed S] [-jsondir DIR] <experiment|all> [more experiments...]
//
// Experiments: table2 table5 fig4 fig5 fig6 fig7 fig8 fig9 table6 table7
// table8 table9 delta topk dynamic serve snapshot scale cluster apps (see
// DESIGN.md §4 for the experiment index). Eight experiments write
// machine-readable artifacts into -jsondir: delta writes BENCH_delta.json
// (iteration-by-iteration active-pair trajectories of worklist-driven
// delta convergence), topk writes BENCH_topk.json (single-source top-k
// query latency and speedup vs full computation across k and graph size),
// dynamic writes BENCH_dynamic.json (incremental maintenance cost per
// update, single and batched streams, vs full recompute), serve writes
// BENCH_serve.json (HTTP serving-layer throughput with the version-stamped
// result cache and request coalescing vs naive per-request recomputation,
// under a mixed read/update workload), snapshot writes BENCH_snapshot.json
// (binary snapshot save/load vs the cold text-parse + Compute restart
// path), scale writes BENCH_scale.json (nodes × edges × threads sweep
// of the dynamic chunk queue on ≥10⁵-edge power-law graphs: wall-clock,
// speedup, load balance and a cross-thread determinism digest), cluster
// writes BENCH_cluster.json (replicated serving tier over loopback
// sockets: router throughput vs a single server, per-follower replication
// lag, and kill/re-sync recovery time) and apps writes BENCH_apps.json
// (the served application endpoints /match, /align and /nodesim: cached
// vs naive throughput on Zipf-skewed traffic, with per-endpoint cache
// counters).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fsim/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced workloads (smoke-test sizes)")
	threads := flag.Int("threads", 0, "worker goroutines (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "seed offset for all generators")
	jsondir := flag.String("jsondir", "", "directory for JSON artifacts such as BENCH_delta.json (default: working directory)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fsimbench [-quick] [-threads N] [-seed S] [-jsondir DIR] <experiment|all>...\n\nexperiments:\n")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Desc)
		}
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{
		Out:     os.Stdout,
		Quick:   *quick,
		Threads: *threads,
		Seed:    *seed,
		JSONDir: *jsondir,
	}
	for _, id := range flag.Args() {
		start := time.Now()
		if err := experiments.Run(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fsimbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %.1fs]\n", id, time.Since(start).Seconds())
	}
}
