package perf

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"fsim/internal/cluster"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/nodesim"
	"fsim/internal/pattern"
	"fsim/internal/server"
)

// The levels a request log is replayed at, each one layer further from
// the library: the direct library call, ServeHTTP in-process, HTTP over
// loopback to a single server, and the router in front of two followers.
const (
	levelDirect = iota
	levelInProcess
	levelLoopback
	levelRouter
	numLevels
)

var levelNames = [numLevels]string{"direct", "inprocess", "loopback", "router"}

// directSpan names the library call each class makes at the direct level.
var directSpan = [numClasses]string{"query.topk", "query.query", "nodesim.pair", "pattern.match", "dynamic.apply"}

// floorReads is how many reads after a write carry its version token at
// the router level.
const floorReads = 10

// step is one request replayed at one level.
type step struct {
	dur time.Duration // the layer call's span
	hit bool          // answered from the result cache
}

// ladder replays a probe's request log with one caller at every level and
// keeps what the per-layer metrics are computed from.
type ladder struct {
	p     *probe
	tr    *Tracer
	steps [numLevels][]step
	layer map[string]*Hist // layer-call durations by span name

	topks, localPairs, seeds, rowCands int
	applies, cone, applyPairs, fulls   int

	hits          *Hist // in-process cache hits
	serverStats   server.StatsResponse
	lagMu         sync.Mutex
	lag           *Hist
	routerStats   cluster.RouterStatsResponse
	floored, late int // router-level floored reads, and those answered below their token
}

func runLadder(p *probe, tr *Tracer) (*ladder, error) {
	l := &ladder{p: p, tr: tr, layer: map[string]*Hist{}, hits: NewHist(), lag: NewHist()}
	for lv := range l.steps {
		l.steps[lv] = make([]step, len(p.log))
	}
	for _, run := range []func() error{l.direct, l.inProcess, l.loopback, l.router} {
		if err := run(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// timed runs fn inside a span and records its duration under name.
func (l *ladder) timed(name string, parent, id int, fn func() error) (time.Duration, error) {
	sp := l.tr.Begin(name, parent, id)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.tr.End(sp)
	if l.layer[name] == nil {
		l.layer[name] = NewHist()
	}
	l.layer[name].Record(d)
	return d, err
}

// replayAt replays the log at one level; call issues request i inside the
// level's root span and reports its layer-call duration and cache state.
func (l *ladder) replayAt(level int, call func(i int, q Request, root int) (step, error)) error {
	for i, q := range l.p.log {
		root := l.tr.Begin(levelNames[level], -1, i)
		st, err := call(i, q, root)
		l.tr.End(root)
		if err != nil {
			return fmt.Errorf("%s level, request %d (%s): %w", levelNames[level], i, q.Target(), err)
		}
		l.steps[level][i] = st
	}
	return nil
}

func (l *ladder) direct() error {
	mt, err := dynamic.New(l.p.g, l.p.opts)
	if err != nil {
		return err
	}
	defer mt.Close()
	ix := mt.Index()
	matcher := &pattern.FSimMatcher{Variant: exact.S, Threads: l.p.opts.Threads}
	return l.replayAt(levelDirect, func(i int, q Request, root int) (step, error) {
		u, v := graph.NodeID(q.U), graph.NodeID(q.V)
		t0 := time.Now()
		var err error
		switch q.Class {
		case classTopK:
			_, err = l.timed(directSpan[q.Class], root, i, func() error {
				_, st, err := ix.TopKStats(u, topK)
				l.topks++
				l.localPairs += st.LocalPairs
				l.seeds += st.Seeds
				return err
			})
			ix.Candidates().ForEachCandidate(u, func(graph.NodeID) { l.rowCands++ })
		case classQuery:
			_, err = l.timed(directSpan[q.Class], root, i, func() error {
				_, _, err := ix.QueryStats(u, v)
				return err
			})
		case classNodesim:
			var m nodesim.PairMeasure
			if m, err = nodesim.PairMeasureByName(q.Measure); err == nil {
				g := mt.Graph()
				_, err = l.timed(directSpan[q.Class], root, i, func() error {
					m.PairScore(g, u, v)
					return nil
				})
			}
		case classMatch:
			var pat *graph.Graph
			if _, err = l.timed("graph.parse", root, i, func() (err error) {
				pat, err = graph.Read(strings.NewReader(q.Body))
				return err
			}); err == nil {
				_, err = l.timed(directSpan[q.Class], root, i, func() error {
					_, err := matcher.MatchGraph(pat, mt.Graph())
					return err
				})
			}
		case classUpdate:
			var changes []graph.Change
			if _, err = l.timed("graph.parse_changes", root, i, func() (err error) {
				changes, err = graph.ReadChanges(strings.NewReader(q.Body))
				return err
			}); err == nil {
				_, err = l.timed(directSpan[q.Class], root, i, func() error {
					st, err := mt.Apply(changes)
					l.applies++
					l.cone += st.Cone
					l.applyPairs += st.LocalPairs
					if st.Full {
						l.fulls++
					}
					return err
				})
			}
		}
		// The direct level's cost is the whole library-side work of the
		// request, parsing included, as the server also parses.
		return step{dur: time.Since(t0)}, err
	})
}

func (l *ladder) inProcess() error {
	srv, err := server.New(l.p.g, l.p.opts, server.Options{})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	w := newRespWriter()
	call := func(i int, q Request, root int) (step, error) {
		req := newRequest(q)
		d, err := l.timed("server."+classNames[q.Class], root, i, func() error {
			return serveInProcess(srv, req, w)
		})
		return step{dur: d, hit: w.h.Get("X-Fsim-Cache") == "hit"}, err
	}
	if err := l.replayAt(levelInProcess, call); err != nil {
		return err
	}
	// Repeat the log's last reads at the final version: the second copy of
	// each is a cache hit, whatever the log's own hit rate.
	id := len(l.p.log)
	for k := len(l.p.log) - 1; k >= 0 && l.hits.Count() < 32; k-- {
		q := l.p.log[k]
		if q.Class == classUpdate {
			continue
		}
		for rep := 0; rep < 2; rep++ {
			st, err := call(id, q, -1)
			id++
			if err != nil {
				return err
			}
			if rep == 1 && st.hit {
				l.hits.Record(st.dur)
			}
		}
	}
	l.serverStats, err = serverStats(srv)
	return err
}

func (l *ladder) loopback() error {
	srv, err := server.New(l.p.g, l.p.opts, server.Options{})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	return l.replayAt(levelLoopback, func(i int, q Request, root int) (step, error) {
		var res httpResult
		d, err := l.timed("http."+classNames[q.Class], root, i, func() (err error) {
			res, err = doHTTP(c, ts.URL, q, 0, false)
			return err
		})
		return step{dur: d, hit: res.hit}, err
	})
}

func (l *ladder) router() error {
	top, err := startTopology(l.p.g, l.p.opts)
	if err != nil {
		return err
	}
	defer top.close()
	c := newClient()
	defer c.CloseIdleConnections()
	// Each write's replication lag is timed by a watcher goroutine, so the
	// floored reads that follow it race replication as a client's would.
	var watchers sync.WaitGroup
	defer watchers.Wait()
	var token uint64
	floorLeft := 0
	err = l.replayAt(levelRouter, func(i int, q Request, root int) (step, error) {
		var floor uint64
		if q.Class != classUpdate && floorLeft > 0 {
			floor = token
			floorLeft--
		}
		var res httpResult
		d, err := l.timed("router."+classNames[q.Class], root, i, func() (err error) {
			res, err = doHTTP(c, top.routerTS.URL, q, floor, false)
			return err
		})
		if err != nil {
			return step{}, err
		}
		switch {
		case q.Class == classUpdate:
			token, floorLeft = res.version, floorReads
			ack := time.Now()
			watchers.Add(1)
			go func(version uint64) {
				defer watchers.Done()
				top.awaitFollowers(version)
				lag := time.Since(ack)
				l.lagMu.Lock()
				l.lag.Record(lag)
				l.lagMu.Unlock()
			}(token)
		case floor > 0:
			l.floored++
			if res.version < floor {
				l.late++
			}
		}
		return step{dur: d, hit: res.hit}, nil
	})
	watchers.Wait()
	if err != nil {
		return err
	}
	l.routerStats, err = top.routerStats()
	return err
}

// median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// added is the median, over reads answered the same way (both hits or both
// misses) at the two levels, of the time the upper level adds per request.
func (l *ladder) added(lower, upper int) float64 {
	var d []float64
	for i, q := range l.p.log {
		lo, up := l.steps[lower][i], l.steps[upper][i]
		if q.Class != classUpdate && lo.hit == up.hit {
			d = append(d, float64(up.dur-lo.dur)/1e6)
		}
	}
	return median(d)
}

// report sets the per-layer metrics the ladder measures.
func (l *ladder) report(r *Report) {
	ms := func(name string, q float64) float64 {
		if h := l.layer[name]; h != nil {
			return h.Ms(q)
		}
		return 0
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("query.topk_p50_ms", ms("query.topk", 0.5), "ms")
	r.set("query.topk_p99_ms", ms("query.topk", 0.99), "ms")
	r.set("query.query_ms", ms("query.query", 0.5), "ms")
	r.set("query.local_pairs", ratio(l.localPairs, l.topks), "count")
	r.set("query.seeds", ratio(l.seeds, l.topks), "count")
	r.set("query.seed_ratio", ratio(l.seeds, l.rowCands), "fraction")
	r.set("dynamic.apply_p50_ms", ms("dynamic.apply", 0.5), "ms")
	r.set("dynamic.apply_p99_ms", ms("dynamic.apply", 0.99), "ms")
	r.set("dynamic.cone", ratio(l.cone, l.applies), "count")
	r.set("dynamic.local_pairs", ratio(l.applyPairs, l.applies), "count")
	r.set("dynamic.full_fallback_ratio", ratio(l.fulls, l.applies), "fraction")
	r.set("pattern.match_ms", ms("pattern.match", 0.5), "ms")
	r.set("nodesim.pair_ms", ms("nodesim.pair", 0.5), "ms")
	for c, name := range classNames {
		var d []float64
		for i, q := range l.p.log {
			if q.Class == c {
				d = append(d, float64(l.steps[levelInProcess][i].dur)/1e6)
			}
		}
		r.set("server."+name+"_ms", median(d), "ms")
	}
	r.set("server.hit_us", l.hits.Quantile(0.5)/1e3, "us")
	var overhead []float64
	for i, q := range l.p.log {
		if st := l.steps[levelInProcess][i]; q.Class != classUpdate && !st.hit {
			overhead = append(overhead, float64(st.dur-l.steps[levelDirect][i].dur)/1e6)
		}
	}
	r.set("server.miss_overhead_ms", median(overhead), "ms")
	st := l.serverStats
	r.set("server.cache_hit_ratio", ratio(int(st.CacheHits), int(st.CacheHits+st.CacheMisses)), "fraction")
	r.set("server.coalesced", float64(st.Coalesced), "count")
	r.set("server.computes", float64(st.ComputeLatency.Count), "count")
	r.set("server.rejected", float64(st.Rejected), "count")
	r.set("http.loopback_ms", l.added(levelInProcess, levelLoopback), "ms")
	r.set("cluster.router_hop_ms", l.added(levelLoopback, levelRouter), "ms")
	r.set("cluster.replication_lag_p50_ms", l.lag.Ms(0.5), "ms")
	r.set("cluster.replication_lag_max_ms", l.lag.Max()/1e6, "ms")
	r.set("cluster.stale_retries", float64(l.routerStats.StaleRetries), "count")
	r.set("cluster.failovers", float64(l.routerStats.Failovers), "count")
	r.set("cluster.exhausted_reads", float64(l.routerStats.ExhaustedReads), "count")
	if l.late > 0 {
		r.fail("ladder: %d of %d floored reads through the router answered below their token", l.late, l.floored)
	}
	for lv, name := range levelNames {
		var all []float64
		for _, s := range l.steps[lv] {
			all = append(all, float64(s.dur)/1e6)
		}
		r.set("ladder."+name+"_p50_ms", median(all), "ms")
	}
	r.note("layer ladder: %d requests replayed at each of %s with one caller", len(l.p.log), strings.Join(levelNames[:], ", "))
}
