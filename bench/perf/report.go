package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// MetricSpec is one metric as BENCHMARK.json declares it.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is one workload's run: its correctness verdict, request counts and
// every metric it measured — the end-to-end set, the workload's own extras
// (batch_s, max_rate_rps, write_p50_ms, error_rate) and, when traced, the
// per-layer set.
type Report struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	order     []string
}

func newReport(workload string) *Report {
	return &Report{Workload: workload, Correct: true, Metrics: map[string]Metric{}}
}

// set records a metric; the first set fixes its printing position.
func (r *Report) set(name string, value float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// fail marks the run incorrect and records why.
func (r *Report) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "GATE FAILED: "+fmt.Sprintf(format, args...))
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print writes one "workload metric value unit" line per metric.
func (r *Report) Print(w io.Writer) {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, formatValue(m.Value), m.Unit)
	}
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// ContractLine is the run as one line of JSON for a benchmark harness: the
// metrics named in specs (the end-to-end set, or the per-layer set when
// traced), each of which the run must have measured in the declared unit.
func (r *Report) ContractLine(specs []MetricSpec) ([]byte, error) {
	metrics := map[string]Metric{}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", r.Workload, s.Name)
		}
		if m.Unit != s.Unit {
			return nil, fmt.Errorf("workload %s measured %s in %s, BENCHMARK.json declares %s", r.Workload, s.Name, m.Unit, s.Unit)
		}
		metrics[s.Name] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// RunFile is bench/results/run-<seed>-<n>.json: one invocation's reports
// with the host facts needed to read them.
type RunFile struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Workloads  []*Report `json:"workloads"`
}

// NewRunFile stamps a run file with this host's facts.
func NewRunFile(seed int64, seconds int, trace bool) *RunFile {
	return &RunFile{Seed: seed, Seconds: seconds, Trace: trace, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// Write stores the run as dir/run-<seed>-<n>.json with the first unused n
// and returns the path.
func (f *RunFile) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("run-%d-%d.json", f.Seed, n))
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := fh.Write(append(data, '\n')); err != nil {
			fh.Close()
			return "", err
		}
		return path, fh.Close()
	}
}

// ReadRunFile loads a run file.
func ReadRunFile(path string) (*RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f RunFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Benchmark is the part of BENCHMARK.json the benchmark itself reads: the
// one declaration of its workloads and metrics.
type Benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// ReadBenchmark loads BENCHMARK.json.
func ReadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Specs indexes every declared metric by name.
func (b *Benchmark) Specs() map[string]MetricSpec {
	out := map[string]MetricSpec{}
	for _, s := range append(append([]MetricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		out[s.Name] = s
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
