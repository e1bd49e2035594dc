// Package perf is the repository benchmark: input generators, load loops,
// a latency histogram, spans, the correctness gate and the comparator behind
// the fsimperf command. It drives each layer of fsim only through that
// layer's public functions; the seed reaches the input generators and
// nothing else.
package perf

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"fsim/internal/core"
)

// traceLimit caps the spans a tracer keeps in memory. The layer ladder
// records a few thousand; the traced measurement wraps around it.
const traceLimit = 200_000

// Lookup returns the workload with the given name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Run measures one workload. With cfg.Trace it then measures the workload
// again with a span around every request (reporting those numbers as
// traced.<metric> and the p50 ratio as harness.trace_overhead), replays its
// request log through the layer ladder, and writes the ladder's spans to
// traceDir.
func Run(w Workload, cfg Config, traceDir string) (*Report, error) {
	r := newReport(w.Name)
	p, err := w.run(cfg, r, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !cfg.Trace {
		return r, nil
	}

	traced := newReport(w.Name)
	if _, err := w.run(cfg, traced, NewTracer(traceLimit)); err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.Name, err)
	}
	for _, name := range traced.order {
		m := traced.Metrics[name]
		r.set("traced."+name, m.Value, m.Unit)
	}
	if !traced.Correct {
		r.fail("traced run: %v", traced.Notes)
	}
	r.set("harness.trace_overhead", traced.Metrics["p50_ms"].Value/r.Metrics["p50_ms"].Value-1, "fraction")

	tr := NewTracer(traceLimit)
	if err := layerCore(cfg, p, tr, r); err != nil {
		return nil, fmt.Errorf("%s core: %w", w.Name, err)
	}
	l, err := runLadder(p, tr)
	if err != nil {
		return nil, fmt.Errorf("%s ladder: %w", w.Name, err)
	}
	l.report(r)
	harness(cfg, r)
	if traceDir != "" {
		path := filepath.Join(traceDir, "trace-"+w.Name+".json")
		if err := WriteTrace(path, w.Name, cfg.Seed, tr); err != nil {
			return nil, err
		}
		r.note("spans written to %s", path)
	}
	return r, nil
}

// layerCore measures the graph and core layers on the probe's graph:
// graph.Read of its text, and three core.NewCandidateSet + core.ComputeOn
// pairs. The counts depend only on the graph's shape.
func layerCore(cfg Config, p *probe, tr *Tracer, r *Report) error {
	parse, err := medianSeconds(cfg.span(setupShare), func() error {
		_, err := parseGraph(p.text)
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.set("graph.parse_s", parse, "s")
	cands, iters := NewHist(), NewHist()
	var res *core.Result
	for i := 0; i < 3; i++ {
		root := tr.Begin("core.compute", -1, -1)
		sp := tr.Begin("core.candidates", root, -1)
		t0 := time.Now()
		cs, err := core.NewCandidateSet(p.g, p.g, p.opts)
		cands.Record(time.Since(t0))
		tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Begin("core.iterate", root, -1)
		t0 = time.Now()
		res, err = core.ComputeOn(cs)
		iters.Record(time.Since(t0))
		tr.End(sp)
		tr.End(root)
		if err != nil {
			return err
		}
	}
	var work int64
	for _, w := range res.Work {
		work += w
	}
	r.set("core.candidates_s", cands.Quantile(0.5)/1e9, "s")
	r.set("core.iterate_s", iters.Quantile(0.5)/1e9, "s")
	r.set("core.ns_per_unit", iters.Quantile(0.5)/float64(work), "ns")
	r.set("core.work_units", float64(work), "count")
	r.set("core.candidates", float64(res.CandidateCount), "count")
	r.set("core.pruned", float64(res.PrunedCount), "count")
	r.set("core.iterations", float64(res.Iterations), "count")
	r.set("core.candidate_ratio", float64(res.CandidateCount)/float64(res.CandidateCount+res.PrunedCount), "fraction")
	r.set("core.load_balance", res.LoadBalance(), "ratio")
	return nil
}

// harness measures the benchmark's own floor: an in-process call of a
// no-op handler, and the open-loop generator's lateness and backlog
// against that handler at serve-mixed's reference rate.
func harness(cfg Config, r *Report) {
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/topk?u=0&k=10", nil)
	w := newRespWriter()
	floor := NewHist()
	for i := 0; i < 20000; i++ {
		t0 := time.Now()
		w.reset()
		noop.ServeHTTP(w, req)
		floor.Record(time.Since(t0))
	}
	r.set("harness.floor_us", floor.Quantile(0.5)/1e3, "us")
	gen := OpenLoop(mixedRates[0], min(time.Second, cfg.span(0.05)), callers, 0, mixedCycle, func(int) error { return nil })
	r.set("harness.gen_late_p50_ms", gen.Late.Ms(0.5), "ms")
	r.set("harness.gen_late_p99_ms", gen.Late.Ms(0.99), "ms")
	r.set("harness.backlog_max", float64(gen.BacklogMax), "count")
}
