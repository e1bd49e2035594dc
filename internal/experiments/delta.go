package experiments

import (
	"fmt"
	"math"

	"fsim/internal/core"
	"fsim/internal/graph"
)

// deltaRun is one (variant, mode) measurement of the delta benchmark.
type deltaRun struct {
	Variant    string  `json:"variant"`
	Mode       string  `json:"mode"` // "delta-exact", "delta-approx"
	DeltaEps   float64 `json:"delta_eps"`
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Candidates int     `json:"candidates"`
	// ActivePairs is the iteration-by-iteration worklist size — the
	// trajectory whose shrinkage is the worklist's saved work.
	ActivePairs []int `json:"active_pairs"`
	// MaxDiffVsExact is the maximum absolute score deviation from the
	// exact run's result (0 for delta-exact itself).
	MaxDiffVsExact float64 `json:"max_diff_vs_exact"`
}

// deltaReport is the BENCH_delta.json document.
type deltaReport struct {
	Dataset string     `json:"dataset"`
	Nodes   int        `json:"nodes"`
	Edges   int        `json:"edges"`
	Epsilon float64    `json:"epsilon"`
	Runs    []deltaRun `json:"runs"`
}

// Delta benchmarks the approximate stability threshold on the §6-style
// NELL stand-in, for all four variants: the exact run ("delta-exact",
// DeltaEps = 0 — the default worklist, with DeltaMode on only to record
// its active-pair trajectory) against "delta-approx" (DeltaEps = 1e-4),
// whose deviation is measured from the exact scores. It writes the
// iteration-by-iteration active-pair trajectories to BENCH_delta.json (in
// Config.JSONDir, default the working directory).
func Delta(cfg Config) error {
	g := nellGraph(cfg)
	report := deltaReport{
		Dataset: "NELL stand-in",
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Epsilon: 1e-6,
	}
	tab := &table{headers: []string{"χ", "mode", "iters", "time", "final active", "max diff vs exact"}}
	for _, variant := range variantOrder {
		opts := core.DefaultOptions(variant)
		opts.Threads = cfg.Threads
		opts.Epsilon = report.Epsilon
		opts.RelativeEps = false
		opts.MaxIters = 40
		opts.DeltaMode = true

		var ref *core.Result
		for _, mode := range []struct {
			name     string
			deltaEps float64
		}{{"delta-exact", 0}, {"delta-approx", 1e-4}} {
			opts.DeltaEps = mode.deltaEps
			res, err := computeSelf(g, opts)
			if err != nil {
				return err
			}
			if ref == nil {
				ref = res
			}
			maxDiff := 0.0
			ref.ForEach(func(u, v graph.NodeID, s float64) {
				if d := math.Abs(res.Score(u, v) - s); d > maxDiff {
					maxDiff = d
				}
			})
			report.Runs = append(report.Runs, deltaRun{
				Variant: variant.String(), Mode: mode.name, DeltaEps: mode.deltaEps,
				Seconds: res.Duration.Seconds(), Iterations: res.Iterations,
				Converged: res.Converged, Candidates: res.CandidateCount,
				ActivePairs: res.ActivePairs, MaxDiffVsExact: maxDiff,
			})
			tab.add(variant.String(), mode.name, fmt.Sprint(res.Iterations), dur(res.Duration),
				fmt.Sprint(res.ActivePairs[len(res.ActivePairs)-1]), fmt.Sprintf("%.2e", maxDiff))
		}
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_delta.json", report)
}
