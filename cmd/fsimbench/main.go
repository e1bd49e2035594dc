// Command fsimbench regenerates the tables and figures of the paper's
// evaluation section (§5) on the synthetic stand-in datasets.
//
// Usage:
//
//	fsimbench [-quick] [-threads N] [-seed S] [-jsondir DIR] <experiment|all> [more experiments...]
//
// Experiments: table2 table5 fig4 fig5 fig6 fig7 fig8 fig9 table6 table7
// table8 table9 delta scale. Two of them write machine-readable artifacts
// into -jsondir: delta writes BENCH_delta.json (iteration-by-iteration
// active-pair trajectories of the exact worklist and of DeltaEps = 1e-4) and scale
// writes BENCH_scale.json (nodes × edges × threads sweep of the dynamic
// chunk queue on ≥10⁵-edge power-law graphs: wall-clock, speedup, load
// balance and a cross-thread determinism digest).
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
