package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/dynamic"
	"fsim/internal/graph"
)

// dynRun aggregates one update-stream phase of a configuration.
type dynRun struct {
	Mode      string `json:"mode"` // "single" or "batch"
	BatchSize int    `json:"batch_size"`
	Batches   int    `json:"batches"`
	// Updates is the number of effective changes applied across the phase.
	Updates int `json:"updates"`
	// MeanSecondsPerBatch is the mean wall-clock of one Maintainer.Apply;
	// MeanSecondsPerUpdate divides by the batch size.
	MeanSecondsPerBatch  float64 `json:"mean_seconds_per_batch"`
	MeanSecondsPerUpdate float64 `json:"mean_seconds_per_update"`
	// FullSeconds is the mean wall-clock of a from-scratch Compute on the
	// mutated snapshots (measured at the verification points); Speedup is
	// FullSeconds over MeanSecondsPerUpdate — the serving question "how
	// much cheaper is absorbing one update than recomputing".
	FullSeconds float64 `json:"full_seconds"`
	Speedup     float64 `json:"speedup"`
	// MeanSeeds is the mean worklist seeding over all batches. MeanCone
	// and MeanClosure are the mean cone-of-influence and replayed
	// dependency-closure sizes over the batches that stayed localized
	// (fallback batches have no cone; averaging them in would read as
	// "cones were empty"); compare Candidates. Both are 0 when every
	// batch fell back.
	MeanSeeds   int `json:"mean_seeds"`
	MeanCone    int `json:"mean_cone"`
	MeanClosure int `json:"mean_closure"`
	// FullFallbacks counts batches that fell back to a full recompute.
	FullFallbacks int `json:"full_fallbacks"`
	// MaxDiffVsFresh is the maximum absolute deviation of maintained
	// scores from a fresh Compute over all pairs at the verification
	// points (0 by construction under the pinned budget, on either store).
	MaxDiffVsFresh float64 `json:"max_diff_vs_fresh"`
}

// dynConfig is one option-set block of the report.
type dynConfig struct {
	Name           string   `json:"name"`
	Theta          float64  `json:"theta"`
	UpperBound     bool     `json:"upper_bound"`
	Candidates     int      `json:"candidates"`
	InitialSeconds float64  `json:"initial_seconds"` // NewMaintainer (initial fixed point)
	Runs           []dynRun `json:"runs"`
}

// dynReport is the BENCH_dynamic.json document.
type dynReport struct {
	Dataset  string      `json:"dataset"`
	Variant  string      `json:"variant"`
	Nodes    int         `json:"nodes"`
	Edges    int         `json:"edges"`
	MaxIters int         `json:"max_iters"`
	Configs  []dynConfig `json:"configs"`
}

// updateStream generates a deterministic edge-update stream that keeps
// density roughly stable: alternating removals of existing edges and
// insertions of fresh ones.
type updateStream struct {
	rng *rand.Rand
	m   *graph.Mutable
}

func (s *updateStream) next() graph.Change {
	n := s.m.NumNodes()
	if s.rng.Intn(2) == 0 {
		for try := 0; try < 64; try++ {
			u := graph.NodeID(s.rng.Intn(n))
			if out := s.m.Out(u); len(out) > 0 {
				return graph.Change{Op: graph.OpRemoveEdge, U: u, V: out[s.rng.Intn(len(out))]}
			}
		}
	}
	for {
		u := graph.NodeID(s.rng.Intn(n))
		v := graph.NodeID(s.rng.Intn(n))
		if !s.m.HasEdge(u, v) {
			return graph.Change{Op: graph.OpAddEdge, U: u, V: v}
		}
	}
}

// Dynamic benchmarks incremental FSim maintenance against full
// recomputation on the §6-style NELL stand-in and writes
// BENCH_dynamic.json (in Config.JSONDir, default the working directory).
//
// Three configurations are measured, mirroring the topk experiment's
// honest framing. "default" is the paper's θ = 0 setting: every pair is a
// candidate, an update's cone of influence saturates immediately, and the
// maintainer falls back to a full recompute — speedup ≈ 1×. "serving"
// applies the selectivity optimizations (θ = 0.6, §3.4 pruning at β = 0.5,
// α = 0.3) and "serving-lean" the same with α = 0: single-edge cones stay
// a strict subset of the candidate map (~25% on this well-connected
// stand-in) and maintenance absorbs an update several times faster than a
// full Compute, while a 16-change batch saturates the locality threshold
// and amortizes one full recompute across the batch instead. The
// iteration budget is pinned so maintained and from-scratch scores are
// comparable bit-for-bit; MaxDiffVsFresh records the observed deviation
// (0 on either store).
func Dynamic(cfg Config) error {
	scale := 90
	singles, batches, batchSize := 40, 10, 16
	verifyEvery := 8
	defaultSingles := 2
	if cfg.Quick {
		scale = 240
		singles, batches = 8, 2
		verifyEvery = 4
		defaultSingles = 0 // a θ = 0 update costs a full Compute; skip at smoke size
	}
	spec := dataset.MustPaperSpec("NELL", scale)
	spec.Seed += cfg.Seed
	g := spec.Generate()

	base, serving := servedOptions(cfg)
	// α = 0 (the paper's default pruning mode) drops the pruned pairs'
	// stand-in constants entirely. That removes the widest update ripple:
	// with α > 0 an edge change perturbs the Eq. 6 stand-in of every
	// pruned pair in its rows and columns, and each perturbed constant
	// re-seeds its dependents.
	lean := serving
	lean.UpperBoundOpt = &core.UpperBound{Alpha: 0, Beta: 0.5}

	report := dynReport{
		Dataset: "NELL stand-in", Variant: base.Variant.String(),
		Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxIters: base.MaxIters,
	}
	configs := []struct {
		name    string
		opts    core.Options
		singles int
		batches int
	}{
		{"default", base, defaultSingles, 0},
		{"serving", serving, singles, batches},
		{"serving-lean", lean, singles, batches},
	}

	tab := &table{headers: []string{"config", "mode", "updates", "per-update", "full compute", "speedup", "cone", "fallbacks", "max diff"}}
	for _, c := range configs {
		if c.singles == 0 && c.batches == 0 {
			continue
		}
		t0 := time.Now()
		mt, err := dynamic.New(g, c.opts)
		if err != nil {
			return err
		}
		tc := dynConfig{
			Name: c.name, Theta: c.opts.Theta, UpperBound: c.opts.UpperBoundOpt != nil,
			InitialSeconds: time.Since(t0).Seconds(),
		}
		stream := &updateStream{rng: rand.New(rand.NewSource(7 + cfg.Seed)), m: graph.MutableOf(g)}

		phases := []struct {
			mode    string
			batches int
			size    int
		}{
			{"single", c.singles, 1},
			{"batch", c.batches, batchSize},
		}
		for _, ph := range phases {
			if ph.batches == 0 {
				continue
			}
			run := dynRun{Mode: ph.mode, BatchSize: ph.size, Batches: ph.batches}
			var applyTotal time.Duration
			var fullTotal time.Duration
			fullSamples := 0
			localBatches := 0
			for b := 0; b < ph.batches; b++ {
				batch := make([]graph.Change, ph.size)
				for i := range batch {
					batch[i] = stream.next()
					if _, err := stream.m.Apply(batch[i]); err != nil {
						return err
					}
				}
				t0 := time.Now()
				st, err := mt.Apply(batch)
				if err != nil {
					return err
				}
				applyTotal += time.Since(t0)
				run.Updates += st.Applied
				run.MeanSeeds += st.Seeds
				if st.Full {
					run.FullFallbacks++
				} else {
					localBatches++
					run.MeanCone += st.Cone
					run.MeanClosure += st.LocalPairs
				}
				if (b+1)%verifyEvery == 0 || b == ph.batches-1 {
					cur := mt.Graph()
					t0 := time.Now()
					fresh, err := core.Compute(cur, cur, c.opts)
					if err != nil {
						return err
					}
					fullTotal += time.Since(t0)
					fullSamples++
					nn := cur.NumNodes()
					for u := 0; u < nn; u++ {
						for v := 0; v < nn; v++ {
							got, err := mt.Score(graph.NodeID(u), graph.NodeID(v))
							if err != nil {
								return err
							}
							if d := math.Abs(got - fresh.Score(graph.NodeID(u), graph.NodeID(v))); d > run.MaxDiffVsFresh {
								run.MaxDiffVsFresh = d
							}
						}
					}
				}
			}
			run.MeanSecondsPerBatch = applyTotal.Seconds() / float64(ph.batches)
			run.MeanSecondsPerUpdate = run.MeanSecondsPerBatch / float64(ph.size)
			run.MeanSeeds = (run.MeanSeeds + ph.batches/2) / ph.batches
			if localBatches > 0 {
				run.MeanCone = (run.MeanCone + localBatches/2) / localBatches
				run.MeanClosure = (run.MeanClosure + localBatches/2) / localBatches
			}
			if fullSamples > 0 {
				run.FullSeconds = fullTotal.Seconds() / float64(fullSamples)
			}
			if run.MeanSecondsPerUpdate > 0 {
				run.Speedup = run.FullSeconds / run.MeanSecondsPerUpdate
			}
			tc.Candidates = mt.Index().Candidates().NumCandidates()
			tc.Runs = append(tc.Runs, run)
			tab.add(c.name, ph.mode, fmt.Sprint(run.Updates),
				fmt.Sprintf("%.3fms", run.MeanSecondsPerUpdate*1000),
				fmt.Sprintf("%.3fms", run.FullSeconds*1000),
				fmt.Sprintf("%.1fx", run.Speedup),
				fmt.Sprintf("%d/%d", run.MeanCone, tc.Candidates),
				fmt.Sprint(run.FullFallbacks),
				fmt.Sprintf("%.2e", run.MaxDiffVsFresh))
		}
		report.Configs = append(report.Configs, tc)
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_dynamic.json", report)
}
