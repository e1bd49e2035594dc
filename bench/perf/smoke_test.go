package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
var benchmarkFile = filepath.Join("..", "..", "BENCHMARK.json")

// BENCHMARK.json names the workloads the code runs, and bounds every
// end-to-end metric by at most 10%, except set-up time: it has the widest
// bound, at most 25%, because the host's speed drifts between sets of runs
// by more than 10% (see README.md) and set-up time, unlike a latency, must
// stay an end-to-end metric.
func TestBenchmarkFile(t *testing.T) {
	b, err := ReadBenchmark(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if _, err := Lookup(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	widest, setup := 0.0, 0.0
	for _, m := range b.EndToEnd {
		limit := 0.10
		if m.Name == "setup_s" {
			limit, setup = 0.25, m.Bound
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
		widest = max(widest, m.Bound)
	}
	if setup != widest {
		t.Errorf("setup_s bound %v, want the widest (%v)", setup, widest)
	}
}

// Every workload, run briefly with tracing, emits every metric
// BENCHMARK.json declares, passes its correctness gate, and writes a trace
// whose layer ladder reached all four levels. No timing is asserted. With
// -short (~2 s a workload), only serve-hot runs traced: every traced
// workload emits the same per-layer metrics, and a traced run measures the
// workload twice and replays its log at four levels.
func TestSmokeEveryWorkload(t *testing.T) {
	b, err := ReadBenchmark(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Seed: 1, Duration: 250 * time.Millisecond, Trace: !testing.Short() || w.Name == "serve-hot"}
			r, err := Run(w, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("correctness gate failed: %v", r.Notes)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			if _, err := r.ContractLine(b.EndToEnd); err != nil {
				t.Error(err)
			}
			if !cfg.Trace {
				return
			}
			if _, err := r.ContractLine(b.PerLayer); err != nil {
				t.Error(err)
			}

			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			roots := map[string]int{}
			for _, s := range tf.Spans {
				if s.Parent == -1 {
					roots[s.Name]++
				}
			}
			for _, level := range levelNames {
				if roots[level] == 0 {
					t.Errorf("trace has no %s spans (roots: %v, %d dropped)", level, roots, tf.Dropped)
				}
			}
		})
	}
}
