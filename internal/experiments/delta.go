package experiments

import (
	"fmt"
	"math"

	"fsim/internal/core"
	"fsim/internal/graph"
)

// deltaRun is one (variant, strategy) measurement of the delta benchmark.
type deltaRun struct {
	Variant    string  `json:"variant"`
	Mode       string  `json:"mode"` // "full", "delta-exact", "delta-approx"
	DeltaEps   float64 `json:"delta_eps"`
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Candidates int     `json:"candidates"`
	// ActivePairs is the iteration-by-iteration worklist size (delta modes
	// only) — the trajectory whose shrinkage is the strategy's saved work.
	ActivePairs []int `json:"active_pairs,omitempty"`
	// MaxDiffVsFull is the maximum absolute score deviation from the full
	// strategy's result (0 by construction for delta-exact).
	MaxDiffVsFull float64 `json:"max_diff_vs_full"`
}

// deltaReport is the BENCH_delta.json document.
type deltaReport struct {
	Dataset string     `json:"dataset"`
	Nodes   int        `json:"nodes"`
	Edges   int        `json:"edges"`
	Epsilon float64    `json:"epsilon"`
	Runs    []deltaRun `json:"runs"`
}

// Delta benchmarks worklist-driven delta convergence against the full
// recomputation strategy on the §6-style NELL stand-in, for all four
// variants, and writes the iteration-by-iteration active-pair trajectories
// to BENCH_delta.json (in Config.JSONDir, default the working directory).
func Delta(cfg Config) error {
	g := nellGraph(cfg)
	report := deltaReport{
		Dataset: "NELL stand-in",
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Epsilon: 1e-6,
	}
	tab := &table{headers: []string{"χ", "mode", "iters", "time", "final active", "max diff vs full"}}
	for _, variant := range variantOrder {
		base := core.DefaultOptions(variant)
		base.Threads = cfg.Threads
		base.Epsilon = report.Epsilon
		base.RelativeEps = false
		base.MaxIters = 40

		full, err := computeSelf(g, base)
		if err != nil {
			return err
		}
		modes := []struct {
			name     string
			deltaEps float64
		}{{"delta-exact", 0}, {"delta-approx", 1e-4}}
		report.Runs = append(report.Runs, deltaRun{
			Variant: variant.String(), Mode: "full",
			Seconds: full.Duration.Seconds(), Iterations: full.Iterations,
			Converged: full.Converged, Candidates: full.CandidateCount,
		})
		tab.add(variant.String(), "full", fmt.Sprint(full.Iterations), dur(full.Duration),
			fmt.Sprint(full.CandidateCount), "—")
		for _, mode := range modes {
			opts := base
			opts.DeltaMode = true
			opts.DeltaEps = mode.deltaEps
			res, err := computeSelf(g, opts)
			if err != nil {
				return err
			}
			maxDiff := 0.0
			full.ForEach(func(u, v graph.NodeID, s float64) {
				if d := math.Abs(res.Score(u, v) - s); d > maxDiff {
					maxDiff = d
				}
			})
			report.Runs = append(report.Runs, deltaRun{
				Variant: variant.String(), Mode: mode.name, DeltaEps: mode.deltaEps,
				Seconds: res.Duration.Seconds(), Iterations: res.Iterations,
				Converged: res.Converged, Candidates: res.CandidateCount,
				ActivePairs: res.ActivePairs, MaxDiffVsFull: maxDiff,
			})
			finalActive := 0
			if n := len(res.ActivePairs); n > 0 {
				finalActive = res.ActivePairs[n-1]
			}
			tab.add(variant.String(), mode.name, fmt.Sprint(res.Iterations), dur(res.Duration),
				fmt.Sprint(finalActive), fmt.Sprintf("%.2e", maxDiff))
		}
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_delta.json", report)
}
