package experiments

import (
	"fmt"
	"math"
	"time"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/query"
)

// topkQueryRun aggregates the per-k measurements of one configuration.
type topkQueryRun struct {
	K           int     `json:"k"`
	Queries     int     `json:"queries"`
	MeanSeconds float64 `json:"mean_seconds"`
	// Speedup is full-Compute wall-clock over mean per-query wall-clock —
	// the serving question "how much cheaper is answering one query than
	// materializing the full fixed point".
	Speedup float64 `json:"speedup"`
	// MeanLocalPairs is the mean dependency-closure size: the query's
	// share of the candidate map (compare Candidates).
	MeanLocalPairs int `json:"mean_local_pairs"`
	MeanSeeds      int `json:"mean_seeds"`
	// MaxDiffVsFull is the maximum rank-wise absolute score deviation
	// between Index.TopK and brute-force Compute + Result.TopK.
	MaxDiffVsFull float64 `json:"max_diff_vs_full"`
}

// topkConfig is one (option set) block of the report.
type topkConfig struct {
	Name              string         `json:"name"`
	Theta             float64        `json:"theta"`
	UpperBound        bool           `json:"upper_bound"`
	FullSeconds       float64        `json:"full_seconds"`
	FullIterations    int            `json:"full_iterations"`
	Candidates        int            `json:"candidates"`
	IndexBuildSeconds float64        `json:"index_build_seconds"`
	Runs              []topkQueryRun `json:"runs"`
}

// topkSize is one graph scale of the report.
type topkSize struct {
	Scale   int          `json:"scale"`
	Nodes   int          `json:"nodes"`
	Edges   int          `json:"edges"`
	Configs []topkConfig `json:"configs"`
}

// topkReport is the BENCH_topk.json document.
type topkReport struct {
	Dataset string     `json:"dataset"`
	Variant string     `json:"variant"`
	Sizes   []topkSize `json:"sizes"`
}

// TopK benchmarks the single-source query subsystem against full Compute
// on the NELL stand-in across k and graph size, and writes BENCH_topk.json
// (in Config.JSONDir, default the working directory).
//
// Two configurations are measured per size. "default" is the paper's θ = 0
// setting, where every pair is a candidate: the dependency closure of a
// query covers most of the connected candidate universe, so exact
// localized queries cannot beat the batch engine — the honest baseline.
// "serving" applies the paper's own selectivity optimizations (the Remark 2
// label constraint θ = 0.6 and §3.4 upper-bound pruning at β = 0.5,
// α = 0.3): the candidate map thins, closures collapse to a few percent of
// it, and per-query time drops one to two orders of magnitude below a full
// Compute at the same options.
func TopK(cfg Config) error {
	variant := exact.BJ
	report := topkReport{Dataset: "NELL stand-in", Variant: variant.String()}
	scales := []int{240, 90}
	queries := 20
	defaultQueries := 4
	if cfg.Quick {
		scales = []int{240}
		queries = 6
		defaultQueries = 0 // θ = 0 queries cost a full-Compute each; skip at smoke size
	}
	ks := []int{1, 10, 50}

	tab := &table{headers: []string{"scale", "config", "k", "full", "topk mean", "speedup", "closure", "max diff"}}
	for _, scale := range scales {
		spec := dataset.MustPaperSpec("NELL", scale)
		spec.Seed += cfg.Seed
		g := spec.Generate()
		size := topkSize{Scale: scale, Nodes: g.NumNodes(), Edges: g.NumEdges()}

		base := core.DefaultOptions(variant)
		base.Threads = cfg.Threads
		serving := base
		serving.Theta = 0.6
		serving.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.5}
		configs := []struct {
			name    string
			opts    core.Options
			queries int
			ks      []int
		}{
			// θ = 0 keeps every pair: one query's closure ≈ the whole
			// candidate map, so measure few queries at the headline k.
			{"default", base, defaultQueries, []int{10}},
			{"serving", serving, queries, ks},
		}
		for _, c := range configs {
			if c.queries == 0 {
				continue
			}
			full, err := computeSelf(g, c.opts)
			if err != nil {
				return err
			}
			t0 := time.Now()
			ix, err := query.New(g, g, c.opts)
			if err != nil {
				return err
			}
			build := time.Since(t0)
			tc := topkConfig{
				Name: c.name, Theta: c.opts.Theta, UpperBound: c.opts.UpperBoundOpt != nil,
				FullSeconds: full.Duration.Seconds(), FullIterations: full.Iterations,
				Candidates: full.CandidateCount, IndexBuildSeconds: build.Seconds(),
			}
			for _, k := range c.ks {
				run := topkQueryRun{K: k, Queries: c.queries}
				var tot time.Duration
				for q := 0; q < c.queries; q++ {
					u := graph.NodeID((q*97 + 13) % g.NumNodes())
					t0 := time.Now()
					top, st, err := ix.TopKStats(u, k)
					if err != nil {
						return err
					}
					tot += time.Since(t0)
					run.MeanLocalPairs += st.LocalPairs
					run.MeanSeeds += st.Seeds
					for i, want := range full.TopK(u, k) {
						if d := math.Abs(top[i].Score - want.Score); d > run.MaxDiffVsFull {
							run.MaxDiffVsFull = d
						}
					}
				}
				if c.queries > 0 {
					run.MeanSeconds = tot.Seconds() / float64(c.queries)
					// Round to nearest: small means (e.g. ~2 seeds per
					// query) would otherwise truncate to half their value.
					run.MeanLocalPairs = (run.MeanLocalPairs + c.queries/2) / c.queries
					run.MeanSeeds = (run.MeanSeeds + c.queries/2) / c.queries
					run.Speedup = full.Duration.Seconds() / run.MeanSeconds
				}
				tc.Runs = append(tc.Runs, run)
				tab.add(fmt.Sprint(scale), c.name, fmt.Sprint(k), dur(full.Duration),
					fmt.Sprintf("%.3fms", run.MeanSeconds*1000),
					fmt.Sprintf("%.1fx", run.Speedup),
					fmt.Sprintf("%d/%d", run.MeanLocalPairs, full.CandidateCount),
					fmt.Sprintf("%.2e", run.MaxDiffVsFull))
			}
			size.Configs = append(size.Configs, tc)
		}
		report.Sizes = append(report.Sizes, size)
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_topk.json", report)
}
