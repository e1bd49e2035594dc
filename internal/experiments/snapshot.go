package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/dynamic"
	"fsim/internal/graph"
	"fsim/internal/snapshot"
)

// snapshotConfig is one option-set block of the BENCH_snapshot.json report.
type snapshotConfig struct {
	Name       string  `json:"name"`
	Theta      float64 `json:"theta"`
	UpperBound bool    `json:"upper_bound"`
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	Candidates int     `json:"candidates"`
	// TextBytes/SnapshotBytes compare the two on-disk representations.
	TextBytes     int64 `json:"text_bytes"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// ColdSeconds is the restart cost a snapshot replaces: parsing the
	// text graph plus computing the initial fixed point (ParseSeconds is
	// the parse share). SaveSeconds and LoadSeconds are the snapshot
	// write and warm-start costs.
	ColdSeconds  float64 `json:"cold_parse_compute_seconds"`
	ParseSeconds float64 `json:"parse_seconds"`
	SaveSeconds  float64 `json:"save_seconds"`
	LoadSeconds  float64 `json:"load_seconds"`
	// Speedup is ColdSeconds / LoadSeconds — the warm-start advantage.
	Speedup float64 `json:"speedup"`
	// MaxScoreDiff is the largest |cold − loaded| score difference over
	// the verification sample (0: the loaded state is bit-identical).
	MaxScoreDiff float64 `json:"max_score_diff"`
}

// snapshotReport is the BENCH_snapshot.json document.
type snapshotReport struct {
	Dataset string `json:"dataset"`
	Variant string `json:"variant"`
	// MaxIters is the pinned iteration budget: cold and warm state are
	// comparable bit-for-bit.
	MaxIters int              `json:"max_iters"`
	Configs  []snapshotConfig `json:"configs"`
}

// Snapshot measures what binary snapshots buy a serving restart: for the
// serving configuration (θ = 0.6, §3.4 pruning) and the θ = 0 default,
// the cold path (parse the text graph, compute the initial fixed point —
// what fsimserve does on every start without a snapshot) is compared
// against saving and warm-loading the state through internal/snapshot.
// Loading skips the fixed point entirely, so the speedup grows with
// compute cost; the θ = 0 numbers are honest about the price — the dense
// all-pairs snapshot is much larger than the text file, trading disk
// bytes for startup seconds. A verification pass asserts the loaded
// scores equal the cold ones. Writes BENCH_snapshot.json (in
// Config.JSONDir, default the working directory).
func Snapshot(cfg Config) error {
	base, serving := servedOptions(cfg)

	scale, repeats := 90, 3
	if cfg.Quick {
		scale, repeats = 240, 1
	}

	dir, err := os.MkdirTemp("", "fsim-snapshot-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	report := snapshotReport{Dataset: "NELL stand-in", Variant: base.Variant.String(), MaxIters: base.MaxIters}
	tab := &table{headers: []string{"config", "nodes", "candidates", "cold parse+compute", "save", "load", "snapshot size", "speedup", "max diff"}}

	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"serving", serving},
		{"default", base},
	} {
		spec := dataset.MustPaperSpec("NELL", scale)
		spec.Seed += cfg.Seed
		g := spec.Generate()

		textPath := filepath.Join(dir, c.name+".txt")
		if err := g.WriteFile(textPath); err != nil {
			return err
		}
		snapPath := filepath.Join(dir, c.name+".fsnap")

		sc := snapshotConfig{Name: c.name, Theta: c.opts.Theta, UpperBound: c.opts.UpperBoundOpt != nil}
		var cold *dynamic.Maintainer
		for r := 0; r < repeats; r++ {
			t0 := time.Now()
			parsed, err := graph.ReadFile(textPath)
			if err != nil {
				return err
			}
			parseSec := time.Since(t0).Seconds()
			mt, err := dynamic.New(parsed, c.opts)
			if err != nil {
				return err
			}
			coldSec := time.Since(t0).Seconds()
			if r == 0 || coldSec < sc.ColdSeconds {
				sc.ColdSeconds, sc.ParseSeconds = coldSec, parseSec
			}
			cold = mt
		}
		sc.Nodes, sc.Edges = g.NumNodes(), g.NumEdges()
		sc.Candidates = cold.Index().Candidates().NumCandidates()

		var warm *dynamic.Maintainer
		for r := 0; r < repeats; r++ {
			t0 := time.Now()
			if err := snapshot.Save(cold, snapPath); err != nil {
				return err
			}
			saveSec := time.Since(t0).Seconds()
			t0 = time.Now()
			mt, err := snapshot.Load(snapPath)
			if err != nil {
				return err
			}
			loadSec := time.Since(t0).Seconds()
			if r == 0 || loadSec < sc.LoadSeconds {
				sc.LoadSeconds = loadSec
			}
			if r == 0 || saveSec < sc.SaveSeconds {
				sc.SaveSeconds = saveSec
			}
			warm = mt
		}
		if st, err := os.Stat(snapPath); err == nil {
			sc.SnapshotBytes = st.Size()
		}
		if st, err := os.Stat(textPath); err == nil {
			sc.TextBytes = st.Size()
		}
		if sc.LoadSeconds > 0 {
			sc.Speedup = sc.ColdSeconds / sc.LoadSeconds
		}

		// Verify the warm state against the cold one: sampled pair scores,
		// and the full top-10 ranking (order, ties and all) of a node
		// stride across the graph.
		for _, p := range samplePairs(g.NumNodes(), g.NumNodes(), 4000, 77+cfg.Seed) {
			a, err1 := cold.Score(p[0], p[1])
			b, err2 := warm.Score(p[0], p[1])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("snapshot: score verification: %v / %v", err1, err2)
			}
			if d := a - b; d > sc.MaxScoreDiff {
				sc.MaxScoreDiff = d
			} else if -d > sc.MaxScoreDiff {
				sc.MaxScoreDiff = -d
			}
		}
		for u := 0; u < g.NumNodes(); u += 1 + g.NumNodes()/32 {
			a, err1 := cold.TopK(graph.NodeID(u), 10)
			b, err2 := warm.TopK(graph.NodeID(u), 10)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("snapshot: ranking verification: %v / %v", err1, err2)
			}
			if len(a) != len(b) {
				return fmt.Errorf("snapshot: TopK(%d) lengths diverged: %d vs %d", u, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					return fmt.Errorf("snapshot: TopK(%d)[%d] diverged: %+v vs %+v", u, i, a[i], b[i])
				}
			}
		}
		if cold.Version() != warm.Version() {
			return fmt.Errorf("snapshot: version diverged: %d vs %d", cold.Version(), warm.Version())
		}

		report.Configs = append(report.Configs, sc)
		tab.add(c.name, fmt.Sprint(sc.Nodes), fmt.Sprint(sc.Candidates),
			dur3(sc.ColdSeconds), dur3(sc.SaveSeconds), dur3(sc.LoadSeconds),
			fmt.Sprintf("%.1f MiB", float64(sc.SnapshotBytes)/(1<<20)),
			fmt.Sprintf("%.1fx", sc.Speedup), fmt.Sprintf("%g", sc.MaxScoreDiff))
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_snapshot.json", report)
}

func dur3(sec float64) string { return fmt.Sprintf("%.3fs", sec) }
