package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fsim/internal/cluster"
	"fsim/internal/core"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/server"
)

const (
	// callers bounds the load: this many caller goroutines, connections
	// and engine threads, the CPU count of the host the benchmark was
	// sized on.
	callers = 2
	// A run sets up again and again for setupShare of its length, at least
	// minSetups and at most maxSetups times.
	minSetups  = 5
	maxSetups  = 1000
	setupShare = 0.1
	// pollInterval is the followers' change-log polling cadence.
	pollInterval = 5 * time.Millisecond
)

// servingOptions is the serving config: FSim_bj, θ = 0.6, §3.4 pruning at
// β = 0.5 with α = 0.3 stand-ins, and a pinned budget of 12 iterations, so
// every served score is bit-identical to a fresh core.Compute.
func servingOptions() core.Options {
	opts := core.DefaultOptions(exact.BJ).WithPinnedIterations(12)
	opts.Theta = 0.6
	opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.5}
	opts.Threads = callers
	return opts
}

// batchOptions is the batch config: FSim_bj, θ = 0.6, §3.4 pruning at
// β = 0.5 with α = 0, and 8 pinned iterations.
func batchOptions() core.Options {
	opts := core.DefaultOptions(exact.BJ).WithPinnedIterations(8)
	opts.Theta = 0.6
	opts.UpperBoundOpt = &core.UpperBound{Alpha: 0, Beta: 0.5}
	opts.Threads = callers
	return opts
}

func parseGraph(text []byte) (*graph.Graph, error) {
	return graph.Read(bytes.NewReader(text))
}

// medianSeconds times fn over and over for d (at least minSetups and at
// most maxSetups times) and returns the median time in seconds. Before each
// run but the first, undo (if not nil) releases what the previous run
// built, untimed. Each run starts from a collected heap, so that where the
// collector's cycle falls does not decide what a run costs.
//
// The median of all runs, not the fastest stretch of them: the host
// switches between a fast and a slow speed (graph.Read of the batch graph
// took 1.05 or 1.75 ms), mostly runs slow, and a run that happens on a
// fast stretch would read 40% faster than one that does not. Over three
// minutes of 10 s stretches, the median of each stretch's runs varied by
// 3.5% (quartile distance over median).
func medianSeconds(d time.Duration, fn func() error, undo func()) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minSetups || (len(ds) < maxSetups && time.Since(start) < d) {
		if undo != nil && len(ds) > 0 {
			undo()
		}
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// heapMiB is the live heap after full collections. The second collection
// frees what the first only moved to sync.Pool victim caches.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// respWriter is a reusable http.ResponseWriter for in-process calls: it
// keeps the status, the headers and the body, and allocates nothing once
// warm.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{h: http.Header{}} }

func (w *respWriter) Header() http.Header         { return w.h }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *respWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.code = http.StatusOK
	w.body.Reset()
}

// newRequest builds the in-process *http.Request for req.
func newRequest(req Request) *http.Request {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	return httptest.NewRequest(req.Method(), req.Target(), body)
}

// serveInProcess sends req through h.ServeHTTP; any status but 200 is an
// error.
func serveInProcess(h http.Handler, req *http.Request, w *respWriter) error {
	w.reset()
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL, w.code, strings.TrimSpace(w.body.String()))
	}
	return nil
}

// newClient is an HTTP client with its own connection pool.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: callers + 2}, Timeout: time.Minute}
}

// httpResult is one request's answer over the network.
type httpResult struct {
	version uint64 // X-Fsim-Version
	hit     bool   // X-Fsim-Cache: hit
	body    []byte // kept only when asked for
}

// doHTTP sends req to base (a server or the router); minVersion > 0 adds
// the read-your-writes floor. Any status but 200 is an error.
func doHTTP(c *http.Client, base string, req Request, minVersion uint64, keepBody bool) (httpResult, error) {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequest(req.Method(), base+req.Target(), body)
	if err != nil {
		return httpResult{}, err
	}
	if minVersion > 0 {
		hr.Header.Set(cluster.MinVersionHeader, strconv.FormatUint(minVersion, 10))
	}
	resp, err := c.Do(hr)
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	var res httpResult
	if keepBody || resp.StatusCode != http.StatusOK {
		res.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return httpResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return httpResult{}, fmt.Errorf("%s %s: status %d: %s", req.Method(), req.Target(), resp.StatusCode, strings.TrimSpace(string(res.body)))
	}
	res.hit = resp.Header.Get("X-Fsim-Cache") == "hit"
	if v := resp.Header.Get(server.VersionHeader); v != "" {
		if res.version, err = strconv.ParseUint(v, 10, 64); err != nil {
			return httpResult{}, fmt.Errorf("%s: bad version header %q", req.Target(), v)
		}
	}
	return res, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverStats scrapes a server's /stats in-process.
func serverStats(h http.Handler) (server.StatsResponse, error) {
	w := newRespWriter()
	var st server.StatsResponse
	if err := serveInProcess(h, httptest.NewRequest(http.MethodGet, "/stats", nil), w); err != nil {
		return st, err
	}
	return st, json.Unmarshal(w.body.Bytes(), &st)
}

// topology is the replicated tier on loopback sockets: a leader, two
// followers tailing its change log, and a router in front.
type topology struct {
	leader     *server.Server
	leaderTS   *httptest.Server
	followers  []*cluster.Follower
	followerTS []*httptest.Server
	router     *cluster.Router
	routerTS   *httptest.Server
	backend    *http.Client
}

// startTopology brings the tier up and returns once the router is ready
// and both followers serve the leader's version.
func startTopology(g *graph.Graph, opts core.Options) (*topology, error) {
	t := &topology{backend: newClient()}
	leader, err := server.New(g, opts, server.Options{Role: server.RoleLeader})
	if err != nil {
		return nil, err
	}
	t.leader = leader
	t.leaderTS = httptest.NewServer(leader)
	var replicas []string
	for i := 0; i < 2; i++ {
		f, err := cluster.StartFollower(context.Background(), cluster.FollowerOptions{
			Leader: t.leaderTS.URL, PollInterval: pollInterval, HTTP: t.backend,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.followers = append(t.followers, f)
		ts := httptest.NewServer(f)
		t.followerTS = append(t.followerTS, ts)
		replicas = append(replicas, ts.URL)
	}
	t.router, err = cluster.NewRouter(cluster.RouterOptions{
		Leader: t.leaderTS.URL, Replicas: replicas, HTTP: t.backend, RetryWait: time.Millisecond,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.routerTS = httptest.NewServer(t.router)
	var health cluster.RouterHealthResponse
	if err := getJSON(t.backend, t.routerTS.URL+"/readyz", &health); err != nil {
		t.close()
		return nil, fmt.Errorf("router not ready: %w", err)
	}
	t.awaitFollowers(leader.Maintainer().Version())
	return t, nil
}

// awaitFollowers waits until every follower serves version or newer.
func (t *topology) awaitFollowers(version uint64) {
	for _, f := range t.followers {
		for f.Version() < version {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// close stops every server and goroutine of the tier and waits for them.
func (t *topology) close() {
	ctx := context.Background()
	if t.routerTS != nil {
		t.routerTS.Close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for i, f := range t.followers {
		if i < len(t.followerTS) {
			t.followerTS[i].Close()
		}
		f.Close(ctx)
	}
	if t.leaderTS != nil {
		t.leaderTS.Close()
	}
	if t.leader != nil {
		t.leader.Shutdown(ctx)
	}
	t.backend.CloseIdleConnections()
}

// routerStats scrapes the router's /stats.
func (t *topology) routerStats() (cluster.RouterStatsResponse, error) {
	var st cluster.RouterStatsResponse
	return st, getJSON(t.backend, t.routerTS.URL+"/stats", &st)
}

// freshReference computes the batch fixed point of the graph a maintainer
// holds, at its options: what every served answer must equal bit for bit.
func freshReference(srv *server.Server) (*core.Result, uint64, error) {
	g, version := srv.Maintainer().GraphAt()
	res, err := core.Compute(g, g, srv.Maintainer().Options())
	return res, version, err
}
