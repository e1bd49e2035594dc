package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickCfg returns the smoke-test configuration.
func quickCfg(buf *bytes.Buffer) Config {
	var out io.Writer = io.Discard
	if buf != nil {
		out = buf
	}
	return Config{Out: out, Quick: true, Threads: 1}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation section must be present,
	// plus the repo's own delta-convergence and top-k query benchmarks.
	want := []string{"table2", "table5", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "table6", "table7", "table8", "table9", "delta", "topk", "dynamic", "snapshot", "scale", "cluster", "apps"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", quickCfg(nil)); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestTable2Output verifies the Table 2 reproduction prints the paper's
// ✓/× pattern.
func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantRows := map[string]string{
		"s-simulation":  "× ",
		"bj-simulation": "✓ (1.00)",
	}
	for row, frag := range wantRows {
		if !strings.Contains(out, row) || !strings.Contains(out, frag) {
			t.Fatalf("table2 output missing %q / %q:\n%s", row, frag, out)
		}
	}
	// The (u,v4) column must be ✓ 1.00 on every row.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "-simulation") && !strings.Contains(line, "✓ (1.00)") {
			t.Fatalf("row lacks the exact v4 match: %q", line)
		}
	}
}

// TestFig5Shape runs the robustness experiment end to end at smoke size
// and asserts the paper's qualitative claim: the correlation at the
// highest error level stays positive and below the zero-error 1.0.
func TestFig5Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "structural error") || !strings.Contains(out, "label error") {
		t.Fatalf("fig5 output incomplete:\n%s", out)
	}
	zeroRows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "0.0%" {
			zeroRows++
			if fields[1] != "1.000" {
				t.Fatalf("zero error level should correlate 1.000, got %q", line)
			}
		}
	}
	if zeroRows != 2 {
		t.Fatalf("expected two zero-error rows, saw %d:\n%s", zeroRows, out)
	}
}

// TestFig7Shape asserts θ=1 maintains fewer candidate pairs than θ=0.
func TestFig7Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("fig7 output too short:\n%s", buf.String())
	}
	var first, last string
	for _, l := range lines[1:] {
		if strings.TrimSpace(l) == "" {
			continue
		}
		if first == "" {
			first = l
		}
		last = l
	}
	pairs := func(line string) string {
		fields := strings.Fields(line)
		return fields[len(fields)-1]
	}
	if pairs(first) == pairs(last) {
		t.Fatalf("θ=1 should prune candidates:\nfirst: %s\nlast: %s", first, last)
	}
}

// TestDeltaExperiment runs the delta-convergence benchmark at smoke size
// and validates the BENCH_delta.json artifact: every (variant, mode) run is
// present, delta-exact never deviates from the full strategy, and the
// approximate mode's active-pair trajectory shrinks.
func TestDeltaExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.JSONDir = t.TempDir()
	if err := Delta(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_delta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Runs []struct {
			Variant       string  `json:"variant"`
			Mode          string  `json:"mode"`
			ActivePairs   []int   `json:"active_pairs"`
			Candidates    int     `json:"candidates"`
			MaxDiffVsFull float64 `json:"max_diff_vs_full"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 12 { // 4 variants × {full, delta-exact, delta-approx}
		t.Fatalf("expected 12 runs, got %d", len(report.Runs))
	}
	for _, run := range report.Runs {
		switch run.Mode {
		case "delta-exact":
			if run.MaxDiffVsFull != 0 {
				t.Errorf("%s/%s: exact delta mode deviated by %v", run.Variant, run.Mode, run.MaxDiffVsFull)
			}
		case "delta-approx":
			// s and b converge monotonically, so the drift is bounded by
			// ~DeltaEps·w/(1−w). The greedy matching of dp and bj
			// oscillates instead of converging (see
			// core.TestGreedyOscillationBounded); freezing pairs at
			// different phases of a non-converged oscillation shows up as
			// amplitude-scale deviation, not a delta-mode defect.
			tol := 2e-3
			if run.Variant == "dp" || run.Variant == "bj" {
				tol = 0.05
			}
			if run.MaxDiffVsFull > tol {
				t.Errorf("%s/%s: approximation drift %v too large", run.Variant, run.Mode, run.MaxDiffVsFull)
			}
			if n := len(run.ActivePairs); n == 0 || run.ActivePairs[n-1] >= run.Candidates {
				t.Errorf("%s/%s: active-pair trajectory did not shrink: %v of %d",
					run.Variant, run.Mode, run.ActivePairs, run.Candidates)
			}
		}
	}
	if !strings.Contains(buf.String(), "delta-approx") {
		t.Fatalf("table output incomplete:\n%s", buf.String())
	}
}

// TestDynamicExperiment runs the incremental-maintenance benchmark at
// smoke size and validates the BENCH_dynamic.json artifact: the serving
// configuration must absorb both update phases with exact scores, and its
// mean cone of influence must stay a strict subset of the candidate map.
func TestDynamicExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.JSONDir = t.TempDir()
	if err := Dynamic(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_dynamic.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Configs []struct {
			Name       string `json:"name"`
			Candidates int    `json:"candidates"`
			Runs       []struct {
				Mode           string  `json:"mode"`
				Updates        int     `json:"updates"`
				MeanCone       int     `json:"mean_cone"`
				FullFallbacks  int     `json:"full_fallbacks"`
				Batches        int     `json:"batches"`
				MaxDiffVsFresh float64 `json:"max_diff_vs_fresh"`
			} `json:"runs"`
		} `json:"configs"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	foundServing := false
	for _, c := range report.Configs {
		if c.Name != "serving" {
			continue
		}
		foundServing = true
		if len(c.Runs) != 2 {
			t.Fatalf("serving config has %d runs, want 2 (single + batch)", len(c.Runs))
		}
		for _, run := range c.Runs {
			if run.Updates == 0 {
				t.Errorf("serving %s phase applied no updates", run.Mode)
			}
			// The pinned iteration budget makes maintenance exact; the
			// dense store at smoke size makes it bit-exact.
			if run.MaxDiffVsFresh != 0 {
				t.Errorf("serving %s phase deviated from fresh Compute by %v", run.Mode, run.MaxDiffVsFresh)
			}
			if run.FullFallbacks < run.Batches && (run.MeanCone <= 0 || run.MeanCone >= c.Candidates) {
				t.Errorf("serving %s phase: mean cone %d of %d candidates, want a strict nonempty subset",
					run.Mode, run.MeanCone, c.Candidates)
			}
		}
	}
	if !foundServing {
		t.Fatal("serving configuration missing from report")
	}
	if !strings.Contains(buf.String(), "BENCH_dynamic.json") {
		t.Fatal("experiment did not report the artifact path")
	}
}

// TestSamplePairsDeterministic pins the correlation sampling.
func TestSamplePairsDeterministic(t *testing.T) {
	a := samplePairs(100, 100, 50, 7)
	b := samplePairs(100, 100, 50, 7)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("sample sizes: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	full := samplePairs(5, 4, 1000, 1)
	if len(full) != 20 {
		t.Fatalf("small universe should enumerate all pairs, got %d", len(full))
	}
}

// TestTopKExperiment runs the single-source query benchmark at smoke size
// and validates the BENCH_topk.json artifact: the serving configuration
// must be present with every k, its closures must stay a strict subset of
// the candidate map, and its rankings must agree with full Compute to
// within the convergence tolerance.
func TestTopKExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.JSONDir = t.TempDir()
	if err := TopK(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_topk.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Sizes []struct {
			Scale   int `json:"scale"`
			Configs []struct {
				Name       string `json:"name"`
				Candidates int    `json:"candidates"`
				Runs       []struct {
					K              int     `json:"k"`
					Queries        int     `json:"queries"`
					Speedup        float64 `json:"speedup"`
					MeanLocalPairs int     `json:"mean_local_pairs"`
					MaxDiffVsFull  float64 `json:"max_diff_vs_full"`
				} `json:"runs"`
			} `json:"configs"`
		} `json:"sizes"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Sizes) == 0 {
		t.Fatal("no sizes in report")
	}
	foundServing := false
	for _, size := range report.Sizes {
		for _, c := range size.Configs {
			if c.Name != "serving" {
				continue
			}
			foundServing = true
			if len(c.Runs) != 3 {
				t.Fatalf("serving config has %d runs, want 3 (k = 1, 10, 50)", len(c.Runs))
			}
			for _, run := range c.Runs {
				if run.Queries == 0 {
					t.Fatalf("serving k=%d measured no queries", run.K)
				}
				if run.MeanLocalPairs <= 0 || run.MeanLocalPairs >= c.Candidates {
					t.Errorf("serving k=%d: closure %d should be a strict nonempty subset of %d candidates",
						run.K, run.MeanLocalPairs, c.Candidates)
				}
				if run.MaxDiffVsFull > 0.05 {
					t.Errorf("serving k=%d: rank-wise deviation %v vs full Compute", run.K, run.MaxDiffVsFull)
				}
			}
		}
	}
	if !foundServing {
		t.Fatal("serving configuration missing from report")
	}
	if !strings.Contains(buf.String(), "BENCH_topk.json") {
		t.Fatal("experiment did not report the artifact path")
	}
}

// TestSnapshotExperiment runs the snapshot warm-start benchmark at smoke
// size and validates the BENCH_snapshot.json artifact: both configurations
// verify bit-identical warm state (max_score_diff 0), and the snapshot
// load beats the cold parse + Compute path.
func TestSnapshotExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.JSONDir = t.TempDir()
	if err := Snapshot(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Configs []struct {
			Name          string  `json:"name"`
			Candidates    int     `json:"candidates"`
			SnapshotBytes int64   `json:"snapshot_bytes"`
			ColdSeconds   float64 `json:"cold_parse_compute_seconds"`
			LoadSeconds   float64 `json:"load_seconds"`
			Speedup       float64 `json:"speedup"`
			MaxScoreDiff  float64 `json:"max_score_diff"`
		} `json:"configs"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Configs) != 2 {
		t.Fatalf("report has %d configs, want 2 (serving + default)", len(report.Configs))
	}
	for _, c := range report.Configs {
		if c.Candidates == 0 || c.SnapshotBytes == 0 {
			t.Errorf("%s: empty run (%d candidates, %d snapshot bytes)", c.Name, c.Candidates, c.SnapshotBytes)
		}
		if c.MaxScoreDiff != 0 {
			t.Errorf("%s: warm state diverged from cold by %g", c.Name, c.MaxScoreDiff)
		}
		if c.ColdSeconds <= 0 || c.LoadSeconds <= 0 {
			t.Errorf("%s: missing timings (cold %v, load %v)", c.Name, c.ColdSeconds, c.LoadSeconds)
		}
		// The θ=0 default pays a full all-pairs fixed point on the cold
		// path, so the snapshot must win decisively even at smoke size;
		// the serving configuration's compute is cheap, so only demand
		// that loading is not slower than cold start.
		if c.Name == "default" && c.Speedup < 2 {
			t.Errorf("default: warm-start speedup %.2fx, want comfortably above 2x", c.Speedup)
		}
		if c.Name == "serving" && c.Speedup < 0.8 {
			t.Errorf("serving: warm start %.2fx slower than cold start", c.Speedup)
		}
	}
	if !strings.Contains(buf.String(), "BENCH_snapshot.json") {
		t.Fatal("experiment did not report the artifact path")
	}
}

// TestAppsExperiment runs the application-endpoint load test at smoke
// size and validates the BENCH_apps.json artifact: all three served
// applications (/match, /align, /nodesim) carry a naive and a cached pass
// over identical traffic, the cached pass hits each endpoint's own cache
// block (the registry's per-endpoint attribution), and the naive pass
// never does.
func TestAppsExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.JSONDir = t.TempDir()
	if err := Apps(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_apps.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		NumCPU    int `json:"num_cpu"`
		Endpoints []struct {
			Name     string `json:"name"`
			Method   string `json:"method"`
			Distinct int    `json:"distinct_requests"`
			Modes    []struct {
				Mode        string  `json:"mode"`
				Requests    int     `json:"requests"`
				Throughput  float64 `json:"throughput_rps"`
				CacheHits   int64   `json:"cache_hits"`
				CacheMisses int64   `json:"cache_misses"`
			} `json:"modes"`
			Speedup float64 `json:"speedup"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.NumCPU <= 0 {
		t.Error("NumCPU missing from the report (the honest-framing denominator)")
	}
	wantNames := []string{"match", "align", "nodesim"}
	if len(report.Endpoints) != len(wantNames) {
		t.Fatalf("report has %d endpoints, want %v", len(report.Endpoints), wantNames)
	}
	for i, ep := range report.Endpoints {
		if ep.Name != wantNames[i] {
			t.Fatalf("endpoint[%d] = %s, want %s", i, ep.Name, wantNames[i])
		}
		if ep.Distinct == 0 {
			t.Errorf("%s: empty request pool", ep.Name)
		}
		if len(ep.Modes) != 2 || ep.Modes[0].Mode != "naive" || ep.Modes[1].Mode != "cached" {
			t.Fatalf("%s: modes %+v, want [naive cached]", ep.Name, ep.Modes)
		}
		naive, cached := ep.Modes[0], ep.Modes[1]
		if naive.Requests == 0 || naive.Requests != cached.Requests {
			t.Fatalf("%s: unequal request counts %d vs %d", ep.Name, naive.Requests, cached.Requests)
		}
		if naive.Throughput <= 0 || cached.Throughput <= 0 {
			t.Errorf("%s: missing throughput (%v, %v)", ep.Name, naive.Throughput, cached.Throughput)
		}
		if naive.CacheHits != 0 || naive.CacheMisses != 0 {
			t.Errorf("%s: naive mode touched a cache (%d hits, %d misses)", ep.Name, naive.CacheHits, naive.CacheMisses)
		}
		if cached.CacheHits == 0 {
			t.Errorf("%s: cached mode never hit its cache", ep.Name)
		}
		// The Zipf pool is far smaller than the request count, so misses
		// (one per distinct key at most, modulo coalescing) must stay
		// below hits.
		if cached.CacheMisses >= cached.CacheHits {
			t.Errorf("%s: %d misses vs %d hits — the hot set is not being captured",
				ep.Name, cached.CacheMisses, cached.CacheHits)
		}
		if ep.Speedup <= 0 {
			t.Errorf("%s: missing speedup", ep.Name)
		}
	}
	if !strings.Contains(buf.String(), "BENCH_apps.json") {
		t.Fatal("experiment did not report the artifact path")
	}
}

// TestClusterExperiment runs the replicated-tier load test at smoke size
// and validates the BENCH_cluster.json artifact: both topologies absorb
// the identical workload over real loopback sockets, every write's
// replication lag is sampled on every follower, and the killed follower
// re-syncs to the leader's final version.
func TestClusterExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.JSONDir = t.TempDir()
	if err := Cluster(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.JSONDir, "BENCH_cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		NumCPU    int `json:"num_cpu"`
		Followers int `json:"followers"`
		Loads     []struct {
			Topology      string  `json:"topology"`
			Requests      int     `json:"requests"`
			UpdateBatches int     `json:"update_batches"`
			Throughput    float64 `json:"throughput_rps"`
		} `json:"loads"`
		ReplicationLag struct {
			Samples int     `json:"samples"`
			MeanMs  float64 `json:"mean_ms"`
			MaxMs   float64 `json:"max_ms"`
		} `json:"replication_lag"`
		ResyncMs      float64 `json:"resync_ms"`
		ResyncVersion uint64  `json:"resync_version"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.NumCPU <= 0 {
		t.Error("NumCPU missing from the report (the honest-framing denominator)")
	}
	if len(report.Loads) != 2 || report.Loads[0].Topology != "single" || report.Loads[1].Topology != "cluster" {
		t.Fatalf("loads %+v, want [single cluster]", report.Loads)
	}
	single, clus := report.Loads[0], report.Loads[1]
	if single.Requests == 0 || single.Requests != clus.Requests {
		t.Fatalf("unequal request counts %d vs %d", single.Requests, clus.Requests)
	}
	if single.UpdateBatches != clus.UpdateBatches {
		t.Fatalf("unequal update batches %d vs %d", single.UpdateBatches, clus.UpdateBatches)
	}
	if single.Throughput <= 0 || clus.Throughput <= 0 {
		t.Fatalf("missing throughput (%v, %v)", single.Throughput, clus.Throughput)
	}
	// One lag sample per (batch, follower) pair.
	if want := clus.UpdateBatches * report.Followers; report.ReplicationLag.Samples != want {
		t.Errorf("lag samples %d, want %d", report.ReplicationLag.Samples, want)
	}
	if report.ReplicationLag.MeanMs <= 0 || report.ReplicationLag.MaxMs < report.ReplicationLag.MeanMs {
		t.Errorf("implausible lag distribution %+v", report.ReplicationLag)
	}
	if report.ResyncMs <= 0 {
		t.Error("re-sync was not timed")
	}
	// The reborn follower must reach the post-kill write: batches during
	// the load plus the one extra batch posted after the kill.
	if want := uint64(clus.UpdateBatches + 1); report.ResyncVersion != want {
		t.Errorf("re-synced to version %d, want %d", report.ResyncVersion, want)
	}
	if !strings.Contains(buf.String(), "BENCH_cluster.json") {
		t.Fatal("experiment did not report the artifact path")
	}
}
