package experiments

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"

	"fsim/internal/dataset"
	"fsim/internal/graph"
	"fsim/internal/server"
)

// appsMode is one load pass over a single served application endpoint.
type appsMode struct {
	// Mode is "naive" (cache and coalescing disabled: every request runs
	// the application core) or "cached" (the serving defaults).
	Mode string `json:"mode"`
	loadRun
	// Per-endpoint cache counters scraped from the /stats "cache" block
	// the workload registry maintains (always zero in naive mode).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// appsEndpoint is one served application's block of the report.
type appsEndpoint struct {
	Name   string `json:"name"`
	Method string `json:"method"`
	// Distinct is the size of the request pool the Zipf traffic draws
	// from — the working set a result cache can capture.
	Distinct int        `json:"distinct_requests"`
	Modes    []appsMode `json:"modes"`
	// Speedup is cached throughput over naive throughput.
	Speedup float64 `json:"speedup"`
}

// appsReport is the BENCH_apps.json document.
type appsReport struct {
	Dataset string `json:"dataset"`
	// NumCPU is the honest-framing denominator: all throughput numbers
	// come from one process on this many cores.
	NumCPU    int            `json:"num_cpu"`
	Transport string         `json:"transport"`
	Endpoints []appsEndpoint `json:"endpoints"`
}

// Apps load-tests the downstream-application endpoints the workload
// registry serves — POST /match (pattern matching), POST /align (graph
// alignment), GET /nodesim (pairwise node similarity) — comparing the
// naive stack (every request runs the application core) against the cached
// serving stack on identical Zipf-skewed traffic, endpoint by endpoint.
// Requests are issued through Server.ServeHTTP in-process, so the numbers
// measure the serving layer (registry dispatch, canonical body hashing,
// cache, coalescing, the application cores, JSON), not the kernel's TCP
// stack. Writes BENCH_apps.json (in Config.JSONDir, default the working
// directory).
func Apps(cfg Config) error {
	_, opts := servedOptions(cfg)

	scale, clients, reads, distinct := 90, 4, 150, 12
	if cfg.Quick {
		scale, clients, reads, distinct = 240, 2, 25, 6
	}
	spec := dataset.MustPaperSpec("NELL", scale)
	spec.Seed += cfg.Seed
	g := spec.Generate()

	endpoints := []struct {
		name   string
		method string
		pool   []request
	}{
		{"match", http.MethodPost, matchTraffic(g, distinct)},
		{"align", http.MethodPost, alignTraffic(g, distinct)},
		{"nodesim", http.MethodGet, nodesimTraffic(g, distinct)},
	}

	report := appsReport{
		Dataset: "NELL stand-in", NumCPU: runtime.NumCPU(),
		Transport: "in-process handler",
	}
	for i := range endpoints {
		report.Endpoints = append(report.Endpoints, appsEndpoint{
			Name: endpoints[i].name, Method: endpoints[i].method,
			Distinct: len(endpoints[i].pool),
		})
	}
	tab := &table{headers: []string{"endpoint", "mode", "requests", "throughput", "mean latency", "hits", "misses", "speedup"}}

	for _, mode := range []string{"naive", "cached"} {
		sopts := server.Options{MaxInFlight: -1}
		if mode == "naive" {
			sopts.CacheEntries = -1
			sopts.DisableCoalescing = true
		}
		srv, err := server.New(g, opts, sopts)
		if err != nil {
			return err
		}
		for ei := range endpoints {
			load, err := runLoad(inProcess(srv), clients, reads, poolReads(endpoints[ei].pool), nil, nil)
			if err != nil {
				return err
			}
			// The registry's per-endpoint cache counters attribute hits
			// and misses to this workload alone, so one cumulative scrape
			// is exact even though the loads share a server.
			sr, err := scrapeStats(srv)
			if err != nil {
				return err
			}
			cs := sr.Cache[endpoints[ei].name]
			run := appsMode{Mode: mode, loadRun: load, CacheHits: cs.Hits, CacheMisses: cs.Misses}
			ep := &report.Endpoints[ei]
			ep.Modes = append(ep.Modes, run)
			if len(ep.Modes) == 2 && ep.Modes[0].ThroughputRPS > 0 {
				ep.Speedup = ep.Modes[1].ThroughputRPS / ep.Modes[0].ThroughputRPS
			}
			tab.add(ep.Name, mode, fmt.Sprint(run.Requests),
				fmt.Sprintf("%.0f req/s", run.ThroughputRPS),
				fmt.Sprintf("%.3fms", run.MeanLatencyMs),
				fmt.Sprint(run.CacheHits), fmt.Sprint(run.CacheMisses),
				speedupCell(ep.Speedup))
		}
	}
	tab.write(cfg.out())

	return writeReport(cfg, "BENCH_apps.json", report)
}

// ballBody serializes the ≤limit-node ball around center as a /match or
// /align upload in the graph text format.
func ballBody(g *graph.Graph, center graph.NodeID, limit int) string {
	sub := g.Ball(center, 1)
	nodes := sub.ToParent
	if len(nodes) > limit {
		nodes = nodes[:limit]
	}
	var buf bytes.Buffer
	if err := g.Induced(nodes).Graph.Write(&buf); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.String()
}

// matchTraffic builds the /match pool: small query graphs cut from balls
// around the hot anchors, matched under the cheap simple-simulation
// variant.
func matchTraffic(g *graph.Graph, distinct int) []request {
	var pool []request
	for _, u := range hotCenters(g, distinct) {
		pool = append(pool, request{target: "/match?variant=s", body: ballBody(g, u, 4)})
	}
	return pool
}

// alignTraffic builds the /align pool: slightly larger ball subgraphs
// aligned against the live graph under the default bj variant (θ = 1
// keeps the candidate set tight).
func alignTraffic(g *graph.Graph, distinct int) []request {
	var pool []request
	for _, u := range hotCenters(g, distinct) {
		pool = append(pool, request{target: "/align", body: ballBody(g, u, 8)})
	}
	return pool
}

// nodesimTraffic builds the /nodesim pool: hot node pairs cycling through
// the three served measures (the structural pair scores and the localized
// FSim query).
func nodesimTraffic(g *graph.Graph, distinct int) []request {
	measures := []string{"jaccard", "simgram", "fsim"}
	centers := hotCenters(g, distinct)
	var pool []request
	for i, u := range centers {
		v := centers[(i+1)%len(centers)]
		if u == v {
			continue
		}
		pool = append(pool, request{
			target: fmt.Sprintf("/nodesim?u=%d&v=%d&measure=%s", u, v, measures[i%len(measures)]),
		})
	}
	return pool
}

// speedupCell renders a cached-over-naive speedup, "-" until both modes
// have run.
func speedupCell(x float64) string {
	if x == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", x)
}
