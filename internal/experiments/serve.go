package experiments

import (
	"fmt"
	"time"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/server"
)

// serveMode aggregates one load-test pass of a server configuration.
type serveMode struct {
	// Mode is "naive" (cache and coalescing disabled: every request runs
	// its own localized fixed point) or "cached" (the serving defaults).
	Mode string `json:"mode"`
	loadRun
	// Server-side counters after the run. ComputeMeanMs is the mean
	// server-side localized-fixed-point latency, separating computation
	// cost from client-observed queueing.
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	Coalesced     int64   `json:"coalesced"`
	Computes      int64   `json:"computes"`
	ComputeMeanMs float64 `json:"compute_mean_ms"`
}

// serveConfig is one option-set block of the report.
type serveConfig struct {
	Name           string      `json:"name"`
	Theta          float64     `json:"theta"`
	UpperBound     bool        `json:"upper_bound"`
	Nodes          int         `json:"nodes"`
	Edges          int         `json:"edges"`
	Candidates     int         `json:"candidates"`
	Clients        int         `json:"clients"`
	InitialSeconds float64     `json:"initial_seconds"`
	Modes          []serveMode `json:"modes"`
	// Speedup is cached throughput over naive throughput — the value of
	// the version-stamped cache + coalescing harness on this workload.
	Speedup float64 `json:"speedup"`
}

// serveReport is the BENCH_serve.json document.
type serveReport struct {
	Dataset string `json:"dataset"`
	Variant string `json:"variant"`
	// MaxIters is the pinned iteration budget: served scores are
	// bit-identical to a fresh Compute at this budget.
	MaxIters int `json:"max_iters"`
	// Transport notes how requests reach the handler: the load test calls
	// ServeHTTP in-process, so the numbers measure the serving layer
	// (routing, cache, coalescing, computation, JSON), not the kernel's
	// TCP stack.
	Transport string        `json:"transport"`
	Configs   []serveConfig `json:"configs"`
}

// Serve load-tests the HTTP serving layer in-process: concurrent client
// goroutines issue /topk requests against a Zipf-skewed hot working set
// (and a sprinkle of /query reads over distinct hot pairs — v is
// resampled until it differs from u, so degenerate self-pair queries
// never pad the cache hit rate)
// through Server.ServeHTTP while a writer posts update batches at
// fixed points of the workload, and the cached serving stack (version-
// stamped result cache + singleflight coalescing) is compared against the
// naive stack (every request computes) on identical traffic. Two
// configurations are measured, mirroring the topk/dynamic experiments'
// honest framing: "serving" (θ = 0.6, §3.4 pruning) keeps per-miss
// localized fixed points cheap, so the cache turns ~hundreds-of-µs
// computations into ~µs lookups and throughput multiplies; "default"
// (θ = 0, every pair a candidate) saturates each miss to full-compute
// cost, where the cache still helps with repeated keys but updates force
// full recomputations — speedup is honestly modest. Writes
// BENCH_serve.json (in Config.JSONDir, default the working directory).
func Serve(cfg Config) error {
	base, serving := servedOptions(cfg)

	servingScale, defaultScale := 90, 240
	servingClients, servingReads, servingBatches := 16, 500, 4
	defaultClients, defaultReads, defaultBatches := 4, 4, 1
	batchSize := 4
	if cfg.Quick {
		servingScale = 240
		servingClients, servingReads, servingBatches = 4, 25, 2
		defaultClients, defaultReads, defaultBatches = 2, 6, 1
		batchSize = 2
	}

	configs := []struct {
		name    string
		opts    core.Options
		scale   int
		clients int
		reads   int
		batches int
		hot     int // hot working-set size for /topk targets
	}{
		{"serving", serving, servingScale, servingClients, servingReads, servingBatches, 32},
		{"default", base, defaultScale, defaultClients, defaultReads, defaultBatches, 4},
	}
	if cfg.Quick {
		configs[0].hot = 8
		configs[1].hot = 3
	}

	report := serveReport{
		Dataset: "NELL stand-in", Variant: base.Variant.String(),
		MaxIters: base.MaxIters, Transport: "in-process handler",
	}
	tab := &table{headers: []string{"config", "mode", "requests", "updates", "throughput", "mean latency", "hits", "misses", "coalesced", "speedup"}}

	for _, c := range configs {
		spec := dataset.MustPaperSpec("NELL", c.scale)
		spec.Seed += cfg.Seed
		g := spec.Generate()

		// Pre-generate the update batches once per config so both modes
		// absorb the identical write stream.
		batches, err := updateBatches(g, 11+cfg.Seed, c.batches, batchSize)
		if err != nil {
			return err
		}

		sc := serveConfig{
			Name: c.name, Theta: c.opts.Theta, UpperBound: c.opts.UpperBoundOpt != nil,
			Nodes: g.NumNodes(), Edges: g.NumEdges(), Clients: c.clients,
		}
		for _, mode := range []string{"naive", "cached"} {
			sopts := server.Options{MaxInFlight: -1}
			if mode == "naive" {
				sopts.CacheEntries = -1
				sopts.DisableCoalescing = true
			}
			t0 := time.Now()
			srv, err := server.New(g, c.opts, sopts)
			if err != nil {
				return err
			}
			if mode == "naive" {
				sc.InitialSeconds = time.Since(t0).Seconds()
				sc.Candidates = srv.Maintainer().Index().Candidates().NumCandidates()
			}
			load, err := runLoad(inProcess(srv), c.clients, c.reads, hotReads(hotCenters(g, c.hot)), batches, nil)
			if err != nil {
				return err
			}
			sr, err := scrapeStats(srv)
			if err != nil {
				return err
			}
			run := serveMode{
				Mode: mode, loadRun: load,
				CacheHits: sr.CacheHits, CacheMisses: sr.CacheMisses, Coalesced: sr.Coalesced,
				Computes: sr.ComputeLatency.Count, ComputeMeanMs: sr.ComputeLatency.MeanMs,
			}
			sc.Modes = append(sc.Modes, run)
			if len(sc.Modes) == 2 && sc.Modes[0].ThroughputRPS > 0 {
				sc.Speedup = sc.Modes[1].ThroughputRPS / sc.Modes[0].ThroughputRPS
			}
			tab.add(c.name, mode, fmt.Sprint(run.Requests),
				fmt.Sprint(run.UpdateChanges),
				fmt.Sprintf("%.0f req/s", run.ThroughputRPS),
				fmt.Sprintf("%.3fms", run.MeanLatencyMs),
				fmt.Sprint(run.CacheHits), fmt.Sprint(run.CacheMisses), fmt.Sprint(run.Coalesced),
				speedupCell(sc.Speedup))
		}
		report.Configs = append(report.Configs, sc)
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_serve.json", report)
}

// speedupCell renders a cached-over-naive speedup, "-" until both modes
// have run.
func speedupCell(x float64) string {
	if x == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", x)
}
