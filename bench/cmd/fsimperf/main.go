// Command fsimperf is the repository benchmark. It runs the workloads of
// BENCHMARK.json, checks that their answers are correct, prints every
// metric as "workload metric value unit", and records the run in
// bench/results/run-<seed>-<n>.json.
//
//	fsimperf [-seed N] [-seconds S] [-trace] [-workload W | W...]
//	fsimperf compare [-benchmark BENCHMARK.json] runs-A... -- runs-B...
//
// With one workload the last line of output is the run as one JSON object
// (correct, attempted, failed and the end-to-end metrics, or with -trace
// the per-layer metrics). It exits 1 when the correctness gate fails and 2
// when the run could not be made. See bench/README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fsim/bench/perf"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(args, os.Stdout, os.Stderr))
}

// normalizeArgs rewrites "-trace 0" and "--trace 1" as "-trace=false" and
// "-trace=true": the flag package reads a boolean flag's value only after
// "=".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+map[string]string{"0": "false", "1": "true"}[args[i+1]])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// defaultResults is bench/results from the repository root, or results
// from inside bench/.
func defaultResults() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "results")
	}
	return "results"
}

// readBenchmark loads path, or with path empty BENCHMARK.json from the
// repository root or from inside bench/.
func readBenchmark(path string) (*perf.Benchmark, error) {
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = filepath.Join("..", "BENCHMARK.json")
		}
	}
	return perf.ReadBenchmark(path)
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsimperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 0, "measured seconds of each workload's main phase (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "also run traced: spans, the layer ladder and the per-layer metrics")
	workload := fs.String("workload", "", "run only this workload")
	out := fs.String("out", defaultResults(), "directory for run and trace files")
	benchPath := fs.String("benchmark", "", "BENCHMARK.json declaring the metrics (default: ./ or ../BENCHMARK.json)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	bench, err := readBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "fsimperf:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = bench.RunSeconds
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "fsimperf: -seconds must be at least 1")
		return 2
	}
	names := fs.Args()
	if *workload != "" {
		names = append(names, *workload)
	}
	if len(names) == 0 {
		for _, w := range perf.Workloads {
			names = append(names, w.Name)
		}
	}
	var workloads []perf.Workload
	for _, n := range names {
		w, err := perf.Lookup(n)
		if err != nil {
			fmt.Fprintln(stderr, "fsimperf:", err)
			return 2
		}
		workloads = append(workloads, w)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "fsimperf:", err)
		return 2
	}

	cfg := perf.Config{Seed: *seed, Duration: time.Duration(*seconds) * time.Second, Trace: *trace}
	run := perf.NewRunFile(*seed, *seconds, *trace)
	correct := true
	for _, w := range workloads {
		r, err := perf.Run(w, cfg, *out)
		if err != nil {
			fmt.Fprintln(stderr, "fsimperf:", err)
			return 2
		}
		r.Print(stdout)
		run.Workloads = append(run.Workloads, r)
		correct = correct && r.Correct
	}
	path, err := run.Write(*out)
	if err != nil {
		fmt.Fprintln(stderr, "fsimperf:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# wrote %s (num_cpu %d, GOMAXPROCS %d, %s)\n", path, run.NumCPU, run.GOMAXPROCS, run.GoVersion)
	if len(run.Workloads) == 1 {
		specs := bench.EndToEnd
		if *trace {
			specs = bench.PerLayer
		}
		line, err := run.Workloads[0].ContractLine(specs)
		if err != nil {
			fmt.Fprintln(stderr, "fsimperf:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !correct {
		fmt.Fprintln(stderr, "fsimperf: correctness gate failed")
		return 1
	}
	return 0
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsimperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "", "BENCHMARK.json with the metric bounds (default: ./ or ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := readBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "fsimperf compare:", err)
		return 2
	}
	var sides [2][]*perf.RunFile
	side := 0
	for _, a := range fs.Args() {
		if a == "--" {
			side++
			if side > 1 {
				break
			}
			continue
		}
		f, err := perf.ReadRunFile(a)
		if err != nil {
			fmt.Fprintln(stderr, "fsimperf compare:", err)
			return 2
		}
		sides[side] = append(sides[side], f)
	}
	if side != 1 || len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(stderr, "usage: fsimperf compare [-benchmark FILE] runs-A... -- runs-B...")
		return 2
	}
	perf.PrintRows(stdout, perf.Compare(sides[0], sides[1], bench), bench)
	return 0
}
