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
	// plus the engine's delta-convergence and scale experiments.
	want := []string{"table2", "table5", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "table6", "table7", "table8", "table9", "delta", "scale"}
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
	// "topk" must stay unknown: the serving layers are measured by the
	// bench module's fsimperf, not by fsimbench.
	for _, id := range []string{"nope", "topk"} {
		err := Run(id, quickCfg(nil))
		if err == nil || !strings.Contains(err.Error(), "unknown id") {
			t.Fatalf("Run(%q) = %v, want an unknown-id error", id, err)
		}
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
// present, each starts with every candidate active, and the approximate
// mode's trajectory shrinks while its scores stay close to the exact
// run's.
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
			Variant        string  `json:"variant"`
			Mode           string  `json:"mode"`
			ActivePairs    []int   `json:"active_pairs"`
			Candidates     int     `json:"candidates"`
			MaxDiffVsExact float64 `json:"max_diff_vs_exact"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 8 { // 4 variants × {delta-exact, delta-approx}
		t.Fatalf("expected 8 runs, got %d", len(report.Runs))
	}
	for _, run := range report.Runs {
		if len(run.ActivePairs) == 0 || run.ActivePairs[0] != run.Candidates {
			t.Errorf("%s/%s: first round must cover every candidate: %v of %d",
				run.Variant, run.Mode, run.ActivePairs, run.Candidates)
		}
		if run.Mode == "delta-approx" {
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
			if run.MaxDiffVsExact > tol {
				t.Errorf("%s/%s: approximation drift %v too large", run.Variant, run.Mode, run.MaxDiffVsExact)
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
