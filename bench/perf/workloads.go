package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/query"
	"fsim/internal/server"
)

// Workload is one benchmark workload (BENCHMARK.json says why each
// exists). run measures it with tracing off (tr nil) or on, fills r, and
// returns the inputs the traced layer ladder replays.
type Workload struct {
	Name string
	run  func(cfg Config, r *Report, tr *Tracer) (*probe, error)
}

// probe is what the layer ladder replays: the workload's starting graph,
// its options and a request log that exercises every request class.
type probe struct {
	text []byte
	g    *graph.Graph
	opts core.Options
	log  []Request
}

// Workloads lists the benchmark's workloads.
var Workloads = []Workload{
	{"batch", runBatch},
	{"serve-mixed", runServeMixed},
	{"serve-hot", runServeHot},
	{"cluster", runCluster},
}

// Config is one run's settings.
type Config struct {
	Seed     int64
	Duration time.Duration // measured time of the workload's main phase
	Trace    bool
}

func (c Config) span(fraction float64) time.Duration {
	return time.Duration(fraction * float64(c.Duration))
}

// replayLen shortens a replayed log to perSecond requests per second of
// run length, so short runs keep the layer ladder short too.
func (c Config) replayLen(n, perSecond int) int {
	return min(n, max(1, int(float64(perSecond)*c.Duration.Seconds())))
}

func (r *Report) setErrorRate() {
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("error_rate", rate, "fraction")
}

// setLatency records p50_ms, and p99_ms over the whole run with the sample
// count and the number of samples beyond p99.
func (r *Report) setLatency(p50 float64, h *Hist) {
	r.set("p50_ms", p50, "ms")
	r.set("p99_ms", h.Ms(0.99), "ms")
	r.set("latency_samples", float64(h.Count()), "count")
	r.set("latency_beyond_p99", float64(h.Beyond(0.99)), "count")
}

// setup times repeated set-ups for setupShare of the run and records their
// median as setup_s; undo releases a set-up before the next, and the last
// one stays.
func (r *Report) setup(cfg Config, fn func() error, undo func()) error {
	s, err := medianSeconds(cfg.span(setupShare), fn, undo)
	if err != nil {
		return err
	}
	r.set("setup_s", s, "s")
	return nil
}

// ---- batch ----

func runBatch(cfg Config, r *Report, tr *Tracer) (*probe, error) {
	opts := batchOptions()
	in := batchInstance(cfg.Seed)
	var g *graph.Graph
	if err := r.setup(cfg, func() (err error) {
		g, err = parseGraph(in.text)
		return err
	}, nil); err != nil {
		return nil, err
	}

	compute := func(id int) (*core.Result, error) {
		root := tr.Begin("batch.compute", -1, id)
		defer tr.End(root)
		if tr == nil {
			return core.Compute(g, g, opts)
		}
		sp := tr.Begin("core.candidates", root, id)
		cs, err := core.NewCandidateSet(g, g, opts)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.Begin("core.iterate", root, id)
		defer tr.End(sp)
		return core.ComputeOn(cs)
	}
	first, err := compute(-1) // warm-up; kept for the gate
	if err != nil {
		return nil, err
	}
	lat := NewHist()
	deadline := time.Now().Add(cfg.span(1))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		_, err := compute(i)
		lat.Record(time.Since(t0))
		r.Attempted++
		if err != nil {
			r.Failed++
			r.note("compute %d: %v", i, err)
		}
	}
	// A Compute outlasts a window, so each one is its own window and the
	// fastest is the least disturbed.
	r.setLatency(lat.Min()/1e6, lat)
	r.set("throughput_rps", 1e9/lat.Min(), "req/s")
	r.set("batch_s", lat.Quantile(0.5)/1e9, "s")

	// Gate: sampled rows of the batch result must equal the query index's
	// answers bit for bit; the score digest is recorded.
	ix, err := query.New(g, g, opts)
	if err != nil {
		return nil, err
	}
	rows := sampleNodes(rngFor(cfg.Seed, 6), g.NumNodes(), gateRows)
	pairs, err := checkBatchRows(first.Score, first.TopK, ix, rows)
	if err != nil {
		r.fail("%v", err)
	}
	r.Digest = scoreDigest(first)
	r.note("%d nodes, %d edges, %d candidates; score digest %s; %d rows (%d pairs) checked against query.Index",
		g.NumNodes(), g.NumEdges(), first.CandidateCount, r.Digest, len(rows), pairs)
	r.set("heap_mb", heapMiB(), "MiB")
	runtime.KeepAlive(first)
	runtime.KeepAlive(ix)
	r.setErrorRate()

	// A query on the batch graph costs about a second, so its ladder
	// replays one request of each class.
	updates := newUpdateStream(in, streamProbeWrites)
	return &probe{text: in.text, g: g, opts: opts, log: withProbe(in, nil, updates, 0, 0)}, nil
}

// ---- serving, shared by serve-mixed and serve-hot ----

// newServing parses the serving graph and builds the in-process server,
// timing repeated builds.
func newServing(cfg Config, r *Report) (*instance, *graph.Graph, *server.Server, error) {
	in := serveInstance(cfg.Seed)
	g, err := parseGraph(in.text)
	if err != nil {
		return nil, nil, nil, err
	}
	var srv *server.Server
	if err := r.setup(cfg, func() (err error) {
		srv, err = server.New(g, servingOptions(), server.Options{})
		return err
	}, func() { srv.Shutdown(context.Background()) }); err != nil {
		return nil, nil, nil, err
	}
	return in, g, srv, nil
}

// gateServer checks sampled /topk answers of srv, served in-process, against
// a fresh computation on the graph it holds now.
func gateServer(cfg Config, r *Report, srv *server.Server) {
	ref, version, err := freshReference(srv)
	if err != nil {
		r.fail("reference compute: %v", err)
		return
	}
	w := newRespWriter()
	get := func(u int) (server.TopKResponse, error) {
		var resp server.TopKResponse
		if err := serveInProcess(srv, newRequest(Request{Class: classTopK, U: u}), w); err != nil {
			return resp, err
		}
		return resp, json.Unmarshal(w.body.Bytes(), &resp)
	}
	g, _ := ref.Graphs()
	nodes := sampleNodes(rngFor(cfg.Seed, 6), g.NumNodes(), gateRows)
	if err := checkServedTopK(get, ref, version, nodes); err != nil {
		r.fail("%v", err)
		return
	}
	r.note("%d /topk answers at version %d equal a fresh core.Compute bit for bit", len(nodes), version)
}

// ---- serve-mixed ----

// The serve-mixed ladder: rates in requests per second and each rung's
// share of the run. The first rung is the reference: its windows carry the
// end-to-end numbers, so it gets half the run. At 300 req/s the serving
// graph's mix already loads a 2-CPU host near capacity (p99
// over the 50 ms limit in some runs), where latency is mostly queueing and
// swings with the host; at 150 req/s it reads the service path.
var (
	mixedRates  = []float64{150, 300, 450, 600, 900}
	mixedShares = []float64{0.5, 0.1125, 0.1125, 0.1125, 0.1125}
	mixedLimits = Limits{P99: 50 * time.Millisecond, MaxFailed: 0.01}
)

const (
	// probeMixed is the length of the mixed traffic appended to the serving
	// workloads' replayed logs (see withProbe).
	probeMixed       = 200
	mixedWarmShare   = 0.05
	mixedReplayCount = 600
	// mixedCycle is the period of serve-mixed's reads, and the size of an
	// open-loop window: every window serves the same requests, so windows
	// differ only in how much the host disturbed them. At the reference
	// rate a window lasts half a second.
	mixedCycle = 75
)

func runServeMixed(cfg Config, r *Report, tr *Tracer) (*probe, error) {
	in, g, srv, err := newServing(cfg, r)
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())

	rungs := make([]Rung, len(mixedRates))
	refStart := int(mixedRates[0]*cfg.span(mixedWarmShare).Seconds()) + 1
	total := refStart
	for i, rate := range mixedRates {
		rungs[i] = Rung{Rate: rate, Duration: cfg.span(mixedShares[i])}
		total += int(rate*rungs[i].Duration.Seconds()) + 1
	}
	updates := newUpdateStream(in, streamWrites)
	log := mixedLog(in, fixedRNG(streamMixed), updates, mixedCycle, total)

	var writesMu sync.Mutex
	writes := NewHist() // /updates acknowledgement times
	do := func(i int) error {
		q := log[i]
		sp := tr.Begin("serve."+classNames[q.Class], -1, i)
		t0 := time.Now()
		err := serveInProcess(srv, newRequest(q), newRespWriter())
		if q.Class == classUpdate {
			writesMu.Lock()
			writes.Record(time.Since(t0))
			writesMu.Unlock()
		}
		tr.End(sp)
		return err
	}
	warm := OpenLoop(mixedRates[0], cfg.span(mixedWarmShare), callers, 0, mixedCycle, do)
	offset := warm.Attempted
	ladder := Ladder(rungs, 1, callers, mixedLimits, mixedCycle, func(i int) error { return do(offset + i) })

	r.Attempted, r.Failed = warm.Attempted, warm.Failed
	maxRate := 0.0
	for _, rr := range ladder {
		r.Attempted += rr.Attempted
		r.Failed += rr.Failed
		if rr.Pass {
			maxRate = rr.Rate
		}
		prefix := fmt.Sprintf("rung%.0f.", rr.Rate)
		r.set(prefix+"p50_ms", rr.Latency.Ms(0.5), "ms")
		r.set(prefix+"p99_ms", rr.Latency.Ms(0.99), "ms")
		r.set(prefix+"samples", float64(rr.Latency.Count()), "count")
		r.set(prefix+"beyond_p99", float64(rr.Latency.Beyond(0.99)), "count")
		r.set(prefix+"achieved_rps", rr.Achieved, "req/s")
		r.set(prefix+"gen_late_p50_ms", rr.Late.Ms(0.5), "ms")
		r.set(prefix+"gen_late_p99_ms", rr.Late.Ms(0.99), "ms")
		r.set(prefix+"backlog_max", float64(rr.BacklogMax), "count")
		if !rr.Pass {
			r.note("rung %.0f req/s failed: %s", rr.Rate, rr.Reason)
		}
	}
	ref := ladder[0]
	r.setLatency(bestP50(ref.Windows), ref.Latency)
	r.set("throughput_rps", ref.Achieved, "req/s")
	r.set("max_rate_rps", maxRate, "req/s")
	r.set("write_p50_ms", writes.Ms(0.5), "ms")

	gateServer(cfg, r, srv)
	r.set("heap_mb", heapMiB(), "MiB")
	r.setErrorRate()

	replay := log[refStart:min(refStart+cfg.replayLen(mixedReplayCount, 40), len(log))]
	return &probe{text: in.text, g: g, opts: servingOptions(), log: withProbe(in, replay, updates, 0, cfg.replayLen(probeMixed, 20))}, nil
}

// withProbe appends to a workload's own log `mixed` requests of mixed
// traffic and one request of every class, so the layer ladder measures
// every layer on every workload; every `every` requests of the own log (0:
// never) it inserts a write.
func withProbe(in *instance, own []Request, updates *updateStream, every, mixed int) []Request {
	var out []Request
	for i, q := range own {
		if every > 0 && i > 0 && i%every == 0 {
			out = append(out, updates.request())
		}
		out = append(out, q)
	}
	out = append(out, mixedLog(in, fixedRNG(streamProbe), updates, mixed, mixed)...)
	u, v := in.node(0), in.node(1)
	out = append(out,
		Request{Class: classTopK, U: u}, Request{Class: classQuery, U: u, V: v},
		Request{Class: classNodesim, U: u, V: v, Measure: "jaccard"},
		Request{Class: classMatch, Body: patternBody(in.base, 0)}, updates.request())
	return out
}

// ---- serve-hot ----

const (
	hotLogLen     = 4096
	hotWarmShare  = 0.1
	hotReplayOwn  = 400
	hotWriteEvery = 100 // replay: one write per this many reads
)

// writer issues caller 0's once-a-second write.
type writer struct {
	updates *updateStream
	last    time.Time
	lat     *Hist
}

func (w *writer) due() bool { return time.Since(w.last) >= time.Second }

func runServeHot(cfg Config, r *Report, tr *Tracer) (*probe, error) {
	in, g, srv, err := newServing(cfg, r)
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())

	logs := make([][]*http.Request, callers)
	for c := range logs {
		for _, q := range hotLog(in, c, hotLogLen) {
			logs[c] = append(logs[c], newRequest(q))
		}
	}
	wr := &writer{updates: newUpdateStream(in, streamWrites), last: time.Now(), lat: NewHist()}
	ws := []*respWriter{newRespWriter(), newRespWriter()}
	do := func(c, i int) error {
		if c == 0 && wr.due() {
			wr.last = time.Now()
			q := wr.updates.request()
			sp := tr.Begin("serve.updates", -1, -1)
			err := serveInProcess(srv, newRequest(q), ws[c])
			tr.End(sp)
			wr.lat.Record(time.Since(wr.last))
			return err
		}
		sp := tr.Begin("serve.read", -1, i)
		err := serveInProcess(srv, logs[c][i%hotLogLen], ws[c])
		tr.End(sp)
		return err
	}
	ClosedLoop(callers, cfg.span(hotWarmShare), do)
	res := ClosedLoop(callers, cfg.span(1), do)
	r.Attempted, r.Failed = res.Attempted, res.Failed
	r.setLatency(bestP50(res.Windows), res.Latency)
	r.set("throughput_rps", slices.Max(res.Rates), "req/s")
	r.set("write_p50_ms", wr.lat.Ms(0.5), "ms")

	gateServer(cfg, r, srv)
	r.set("heap_mb", heapMiB(), "MiB")
	r.setErrorRate()
	return hotProbe(cfg, in, g), nil
}

// hotProbe is the replay log of serve-hot and cluster: the start of caller
// 0's hot log with periodic writes, then the mixed probe.
func hotProbe(cfg Config, in *instance, g *graph.Graph) *probe {
	own := hotLog(in, 0, cfg.replayLen(hotReplayOwn, 40))
	updates := newUpdateStream(in, streamProbeWrites)
	return &probe{text: in.text, g: g, opts: servingOptions(), log: withProbe(in, own, updates, hotWriteEvery, cfg.replayLen(probeMixed, 20))}
}

// ---- cluster ----

func runCluster(cfg Config, r *Report, tr *Tracer) (*probe, error) {
	in := serveInstance(cfg.Seed)
	g, err := parseGraph(in.text)
	if err != nil {
		return nil, err
	}
	var top *topology
	if err := r.setup(cfg, func() (err error) {
		top, err = startTopology(g, servingOptions())
		return err
	}, func() { top.close() }); err != nil {
		return nil, err
	}
	defer top.close()

	base := top.routerTS.URL
	logs := make([][]Request, callers)
	clients := make([]*http.Client, callers)
	for c := range logs {
		logs[c] = hotLog(in, c, hotLogLen)
		clients[c] = newClient()
		defer clients[c].CloseIdleConnections()
	}
	wr := &writer{updates: newUpdateStream(in, streamWrites), last: time.Now(), lat: NewHist()}
	var token uint64
	var floorUntil time.Time
	floored, stale := 0, 0
	do := func(c, i int) error {
		if c == 0 && wr.due() {
			wr.last = time.Now()
			sp := tr.Begin("router.updates", -1, -1)
			res, err := doHTTP(clients[c], base, wr.updates.request(), 0, false)
			tr.End(sp)
			wr.lat.Record(time.Since(wr.last))
			if err != nil {
				return err
			}
			token, floorUntil = res.version, time.Now().Add(time.Second)
			return nil
		}
		var floor uint64
		if c == 0 && time.Now().Before(floorUntil) {
			floor = token
		}
		sp := tr.Begin("router.read", -1, i)
		res, err := doHTTP(clients[c], base, logs[c][i%hotLogLen], floor, false)
		tr.End(sp)
		if err == nil && floor > 0 {
			floored++
			if res.version < floor {
				stale++
			}
		}
		return err
	}
	ClosedLoop(callers, cfg.span(hotWarmShare), do)
	res := ClosedLoop(callers, cfg.span(1), do)
	r.Attempted, r.Failed = res.Attempted, res.Failed
	r.setLatency(bestP50(res.Windows), res.Latency)
	r.set("throughput_rps", slices.Max(res.Rates), "req/s")
	r.set("write_p50_ms", wr.lat.Ms(0.5), "ms")

	// Gate: every floored read was answered at or above its token, and
	// once the followers caught up, answers through the router equal a
	// fresh computation on the leader's graph.
	if stale > 0 {
		r.fail("%d of %d floored reads answered below their version token", stale, floored)
	} else {
		r.note("%d floored reads all answered at or above their token", floored)
	}
	ref, version, err := freshReference(top.leader)
	if err != nil {
		return nil, err
	}
	top.awaitFollowers(version)
	get := func(u int) (server.TopKResponse, error) {
		var resp server.TopKResponse
		res, err := doHTTP(clients[0], base, Request{Class: classTopK, U: u}, version, true)
		if err != nil {
			return resp, err
		}
		return resp, json.Unmarshal(res.body, &resp)
	}
	nodes := sampleNodes(rngFor(cfg.Seed, 6), g.NumNodes(), gateRows)
	if err := checkServedTopK(get, ref, version, nodes); err != nil {
		r.fail("%v", err)
	} else {
		r.note("%d /topk answers through the router at version %d equal a fresh core.Compute bit for bit", len(nodes), version)
	}
	r.set("heap_mb", heapMiB(), "MiB")
	r.setErrorRate()
	return hotProbe(cfg, in, g), nil
}
