package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// testOptions pins the iteration budget so served scores are bit-identical
// to a fresh core.Compute at the same snapshot (the serving contract the
// package documents).
func testOptions() core.Options {
	opts := core.DefaultOptions(exact.BJ)
	opts.Theta = 0.4
	opts.Threads = 2
	opts.Epsilon = 1e-300
	opts.RelativeEps = false
	opts.MaxIters = 8
	return opts
}

func newTestServer(t *testing.T, g *graph.Graph, sopts Options) *Server {
	t.Helper()
	s, err := New(g, testOptions(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do runs one request through the handler and decodes the JSON body.
func do(t *testing.T, s *Server, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w
}

// TestServedScoresMatchCompute is the cache-consistency contract, serially:
// across a sequence of updates, every /topk and /query response carries the
// version it was computed at and scores bit-identical to a fresh
// core.Compute on the graph at that version — on cold misses and cache
// hits alike.
func TestServedScoresMatchCompute(t *testing.T) {
	g := dataset.RandomGraph(11, 18, 54, 3)
	// Within the dense cap and past it (a cap of one pair), each compared
	// with a fresh Compute under the same cap.
	for _, denseCap := range []int{0, 1} {
		t.Run(fmt.Sprintf("DenseCapPairs=%d", denseCap), func(t *testing.T) {
			opts := testOptions()
			opts.DenseCapPairs = denseCap
			s, err := New(g, opts, Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Build three always-effective batches against a mirror of the
			// graph, recording the expected snapshot at every version.
			mirror := graph.MutableOf(g)
			snapshots := map[uint64]*graph.Graph{0: g}
			var allBatches [][]graph.Change
			for b := 0; b < 3; b++ {
				var batch []graph.Change
				for i := 0; i < 2; i++ {
					c := effectiveChange(mirror, int64(100*b+i))
					if _, err := mirror.Apply(c); err != nil {
						t.Fatal(err)
					}
					batch = append(batch, c)
				}
				allBatches = append(allBatches, batch)
				snapshots[uint64(b+1)] = mirror.Snapshot()
			}

			check := func(version uint64) {
				fresh, err := core.Compute(snapshots[version], snapshots[version], opts)
				if err != nil {
					t.Fatal(err)
				}
				n := snapshots[version].NumNodes()
				for u := 0; u < n; u += 3 {
					// Twice: the second round must be served from cache and still match.
					for round := 0; round < 2; round++ {
						var tr TopKResponse
						w := do(t, s, http.MethodGet, fmt.Sprintf("/topk?u=%d&k=4", u), "", &tr)
						if w.Code != http.StatusOK {
							t.Fatalf("topk u=%d: status %d: %s", u, w.Code, w.Body.String())
						}
						if tr.GraphVersion != version {
							t.Fatalf("topk u=%d: version %d, want %d", u, tr.GraphVersion, version)
						}
						want := fresh.TopK(graph.NodeID(u), 4)
						if len(tr.Results) != len(want) {
							t.Fatalf("topk u=%d v%d: %d results, want %d", u, version, len(tr.Results), len(want))
						}
						for i := range want {
							if tr.Results[i].Node != want[i].Index || tr.Results[i].Score != want[i].Score {
								t.Fatalf("topk u=%d v%d round %d entry %d: (%d, %v), want (%d, %v)",
									u, version, round, i, tr.Results[i].Node, tr.Results[i].Score, want[i].Index, want[i].Score)
							}
						}
						if round == 1 && w.Header().Get("X-Fsim-Cache") != "hit" {
							t.Fatalf("topk u=%d v%d: second read not served from cache", u, version)
						}
					}
					var qr QueryResponse
					v := (u + 5) % n
					if w := do(t, s, http.MethodGet, fmt.Sprintf("/query?u=%d&v=%d", u, v), "", &qr); w.Code != http.StatusOK {
						t.Fatalf("query: status %d: %s", w.Code, w.Body.String())
					}
					if qr.GraphVersion != version || qr.Score != fresh.Score(graph.NodeID(u), graph.NodeID(v)) {
						t.Fatalf("query (%d,%d) v%d: got (v%d, %v), want %v",
							u, v, version, qr.GraphVersion, qr.Score, fresh.Score(graph.NodeID(u), graph.NodeID(v)))
					}
				}
			}

			check(0)
			for b, batch := range allBatches {
				var lines []string
				for _, c := range batch {
					lines = append(lines, c.String())
				}
				var ur UpdateResponse
				w := do(t, s, http.MethodPost, "/updates", strings.Join(lines, "\n")+"\n", &ur)
				if w.Code != http.StatusOK {
					t.Fatalf("updates: status %d: %s", w.Code, w.Body.String())
				}
				if ur.GraphVersion != uint64(b+1) || ur.Applied != len(batch) {
					t.Fatalf("updates batch %d: got version %d applied %d, want version %d applied %d",
						b, ur.GraphVersion, ur.Applied, b+1, len(batch))
				}
				check(uint64(b + 1))
			}
		})
	}
}

// effectiveChange generates a change that is guaranteed effective against
// the mirror: removing a present edge or adding an absent one.
func effectiveChange(m *graph.Mutable, seed int64) graph.Change {
	n := m.NumNodes()
	for i := 0; ; i++ {
		u := graph.NodeID((seed + int64(i)*7) % int64(n))
		v := graph.NodeID((seed*3 + int64(i)*11) % int64(n))
		if u == v {
			continue
		}
		if seed%2 == 0 {
			if out := m.Out(u); len(out) > 0 {
				return graph.Change{Op: graph.OpRemoveEdge, U: u, V: out[0]}
			}
		}
		if !m.HasEdge(u, v) {
			return graph.Change{Op: graph.OpAddEdge, U: u, V: v}
		}
	}
}

// TestHealthzAndStats exercises the two observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	g := dataset.RandomGraph(3, 10, 24, 2)
	s := newTestServer(t, g, Options{})

	var hr HealthResponse
	if w := do(t, s, http.MethodGet, "/healthz", "", &hr); w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	if hr.Status != "ok" || hr.Nodes != g.NumNodes() || hr.Edges != g.NumEdges() || hr.GraphVersion != 0 {
		t.Fatalf("healthz: %+v", hr)
	}

	do(t, s, http.MethodGet, "/topk?u=0&k=3", "", nil) // miss
	do(t, s, http.MethodGet, "/topk?u=0&k=3", "", nil) // hit
	var sr StatsResponse
	if w := do(t, s, http.MethodGet, "/stats", "", &sr); w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	if sr.CacheHits != 1 || sr.CacheMisses != 1 {
		t.Fatalf("stats: hits=%d misses=%d, want 1/1", sr.CacheHits, sr.CacheMisses)
	}
	if sr.Requests["topk"] != 2 || sr.Requests["healthz"] != 1 {
		t.Fatalf("stats: requests %v", sr.Requests)
	}
	if sr.ComputeLatency.Count != 1 {
		t.Fatalf("stats: compute latency count %d, want 1", sr.ComputeLatency.Count)
	}
	if sr.CacheEntries != 1 || sr.CacheCapacity <= 0 {
		t.Fatalf("stats: cache entries=%d capacity=%d", sr.CacheEntries, sr.CacheCapacity)
	}
}

// TestErrorPaths covers the client-error surface: bad parameters, bad
// methods, unknown endpoints and malformed or out-of-range update bodies.
func TestErrorPaths(t *testing.T) {
	g := dataset.RandomGraph(5, 8, 16, 2)
	s := newTestServer(t, g, Options{})

	cases := []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodGet, "/topk", "", http.StatusBadRequest},                   // missing params
		{http.MethodGet, "/topk?u=0", "", http.StatusBadRequest},               // missing k
		{http.MethodGet, "/topk?u=zero&k=3", "", http.StatusBadRequest},        // non-numeric
		{http.MethodGet, "/topk?u=99&k=3", "", http.StatusBadRequest},          // out of range
		{http.MethodGet, "/topk?u=4294967301&k=3", "", http.StatusBadRequest},  // must not wrap to node 5
		{http.MethodGet, "/query?u=0&v=4294967296", "", http.StatusBadRequest}, // must not wrap to node 0
		{http.MethodGet, "/topk?u=0&k=0", "", http.StatusBadRequest},           // k must be positive
		{http.MethodPost, "/topk?u=0&k=3", "", http.StatusMethodNotAllowed},    //
		{http.MethodGet, "/query?u=0", "", http.StatusBadRequest},              // missing v
		{http.MethodGet, "/query?u=0&v=99", "", http.StatusBadRequest},         // out of range
		{http.MethodGet, "/updates", "", http.StatusMethodNotAllowed},          //
		{http.MethodPost, "/updates", "?? nonsense", http.StatusBadRequest},    // parse error
		{http.MethodPost, "/updates", "+e 0 99\n", http.StatusBadRequest},      // out of range
		{http.MethodGet, "/nope", "", http.StatusNotFound},                     //
		{http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},         //
		{http.MethodPost, "/stats", "", http.StatusMethodNotAllowed},           //
	}
	for _, c := range cases {
		w := do(t, s, c.method, c.target, c.body, nil)
		if w.Code != c.want {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.target, w.Code, c.want, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q", c.method, c.target, ct)
		}
	}
	// A rejected batch must not have bumped the version or mutated anything.
	var hr HealthResponse
	do(t, s, http.MethodGet, "/healthz", "", &hr)
	if hr.GraphVersion != 0 {
		t.Fatalf("error paths bumped version to %d", hr.GraphVersion)
	}
}

// TestAdmissionControl fills the compute semaphore and asserts overflow
// requests are rejected with 429 instead of queuing.
func TestAdmissionControl(t *testing.T) {
	g := dataset.RandomGraph(7, 10, 24, 2)
	s := newTestServer(t, g, Options{MaxInFlight: 1})
	if cap(s.sem) != 1 {
		t.Fatalf("semaphore capacity %d, want 1", cap(s.sem))
	}
	s.sem <- struct{}{} // occupy the only compute slot
	w := do(t, s, http.MethodGet, "/topk?u=0&k=3", "", nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d, want 429", w.Code)
	}
	<-s.sem
	if w := do(t, s, http.MethodGet, "/topk?u=0&k=3", "", nil); w.Code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", w.Code)
	}
	var sr StatsResponse
	do(t, s, http.MethodGet, "/stats", "", &sr)
	if sr.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", sr.Rejected)
	}
	// Cache hits bypass admission: re-occupy the slot, the cached key
	// must still be served.
	s.sem <- struct{}{}
	w = do(t, s, http.MethodGet, "/topk?u=0&k=3", "", nil)
	<-s.sem
	if w.Code != http.StatusOK || w.Header().Get("X-Fsim-Cache") != "hit" {
		t.Fatalf("cache hit under full semaphore: status %d cache %q", w.Code, w.Header().Get("X-Fsim-Cache"))
	}
}

// TestShutdownDrain covers the graceful-drain sequence: Shutdown waits for
// in-flight requests, refuses new work with 503, flips healthz to
// draining, and closes the maintainer so direct Apply fails too.
func TestShutdownDrain(t *testing.T) {
	g := dataset.RandomGraph(9, 10, 24, 2)
	s := newTestServer(t, g, Options{})

	// Simulate an in-flight request and assert Shutdown blocks on it.
	if !s.enter() {
		t.Fatal("enter refused before shutdown")
	}
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.leave()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if w := do(t, s, http.MethodGet, "/topk?u=0&k=3", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain topk: status %d, want 503", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/updates", "+e 0 1\n", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain updates: status %d, want 503", w.Code)
	}
	w := do(t, s, http.MethodGet, "/healthz", "", nil)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("post-drain healthz: status %d body %s", w.Code, w.Body.String())
	}
	// Stats stays readable for post-mortem scraping.
	if w := do(t, s, http.MethodGet, "/stats", "", nil); w.Code != http.StatusOK {
		t.Fatalf("post-drain stats: status %d", w.Code)
	}
	// The maintainer is closed: writes fail even off the HTTP path.
	if _, err := s.Maintainer().Apply([]graph.Change{{Op: graph.OpAddEdge, U: 0, V: 1}}); err != dynamic.ErrClosed {
		t.Fatalf("Apply after Shutdown: %v, want ErrClosed", err)
	}
	// Shutdown is idempotent.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownTimeoutStillClosesMaintainer pins the drain-timeout
// contract: even when Shutdown gives up waiting on in-flight requests, the
// maintainer is closed so late writers get ErrClosed.
func TestShutdownTimeoutStillClosesMaintainer(t *testing.T) {
	g := dataset.RandomGraph(27, 10, 24, 2)
	s := newTestServer(t, g, Options{})
	if !s.enter() { // a request that never finishes
		t.Fatal("enter refused")
	}
	defer s.leave()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown with stuck request: %v, want DeadlineExceeded", err)
	}
	if _, err := s.Maintainer().Apply([]graph.Change{{Op: graph.OpAddEdge, U: 0, V: 1}}); err != dynamic.ErrClosed {
		t.Fatalf("Apply after timed-out Shutdown: %v, want ErrClosed", err)
	}
}

// TestHealthzDoesNotBlockDuringApply pins the liveness property: /healthz
// (and /stats) must answer while an update is mid-Apply holding the
// maintainer's write lock — a liveness probe that stalls for the length
// of a full recompute would get a healthy server restarted. The apply
// hook runs under that lock, giving a deterministic hold point.
func TestHealthzDoesNotBlockDuringApply(t *testing.T) {
	g := dataset.RandomGraph(29, 10, 24, 2)
	s := newTestServer(t, g, Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Maintainer().SetApplyHook(func(version uint64, st dynamic.Stats) {
		close(entered)
		<-release
	})
	postDone := make(chan int, 1)
	go func() {
		w := do(t, s, http.MethodPost, "/updates", "+e 0 5\n", nil)
		postDone <- w.Code
	}()
	<-entered // Apply is now parked inside the write lock

	probe := func(path string) {
		codeCh := make(chan int, 1)
		go func() {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			codeCh <- w.Code
		}()
		select {
		case code := <-codeCh:
			if code != http.StatusOK {
				t.Errorf("%s during Apply: status %d", path, code)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s blocked behind an in-flight Apply", path)
		}
	}
	probe("/healthz")
	probe("/stats")
	close(release)
	if code := <-postDone; code != http.StatusOK {
		t.Fatalf("updates: status %d", code)
	}
}

// TestCacheInvalidationOnUpdate asserts the apply hook purges old-version
// entries wholesale.
func TestCacheInvalidationOnUpdate(t *testing.T) {
	g := dataset.RandomGraph(13, 12, 30, 2)
	s := newTestServer(t, g, Options{})
	for u := 0; u < 6; u++ {
		do(t, s, http.MethodGet, fmt.Sprintf("/topk?u=%d&k=3", u), "", nil)
	}
	if n := s.cache.len(); n != 6 {
		t.Fatalf("cache has %d entries before update, want 6", n)
	}
	if w := do(t, s, http.MethodPost, "/updates", "+e 0 7\n", nil); w.Code != http.StatusOK {
		t.Fatalf("updates: status %d", w.Code)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cache has %d entries after version bump, want 0", n)
	}
}

// waitForFlightWaiters blocks until n followers have committed to the
// flight registered at key (deterministic sequencing for the flight
// tests; no sleep-based guessing).
func waitForFlightWaiters(t *testing.T, g *flightGroup, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w, ok := g.flightWaiters(key); ok && w >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flight %q never reached %d waiters", key, n)
}

// TestFlightGroupCoalesces pins the singleflight semantics: followers that
// arrive while the leader runs share one execution and one result.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	runs := 0
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		body, version, err, shared := g.do("k", func() ([]byte, uint64, error) {
			runs++
			close(entered)
			<-release
			return []byte("r"), 7, nil
		})
		if string(body) != "r" || version != 7 || err != nil || shared {
			t.Errorf("leader: body=%q version=%d err=%v shared=%v", body, version, err, shared)
		}
	}()
	<-entered

	const followers = 5
	var wg sync.WaitGroup
	sharedCount := 0
	var mu sync.Mutex
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, version, err, shared := g.do("k", func() ([]byte, uint64, error) {
				t.Error("follower executed fn")
				return nil, 0, nil
			})
			if string(body) != "r" || version != 7 || err != nil {
				t.Errorf("follower: body=%q version=%d err=%v", body, version, err)
			}
			mu.Lock()
			if shared {
				sharedCount++
			}
			mu.Unlock()
		}()
	}
	// Release the leader only once every follower has committed to the
	// flight, so none of them can race past it and start a fresh one.
	waitForFlightWaiters(t, &g, "k", followers)
	close(release)
	wg.Wait()
	<-leaderDone
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	if sharedCount != followers {
		t.Fatalf("%d followers saw shared results, want %d", sharedCount, followers)
	}
	// A later call starts a fresh flight.
	if _, _, _, shared := g.do("k", func() ([]byte, uint64, error) { return []byte("x"), 0, nil }); shared {
		t.Fatal("fresh call after completed flight reported shared")
	}
}

// TestResultCache pins the LRU and purge semantics.
func TestResultCache(t *testing.T) {
	// One shard makes the LRU order deterministic (shard choice is hashed).
	c := newResultCache(4, 1)
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprintf("k%d", i), 1, []byte{byte(i)})
	}
	if c.len() != 4 {
		t.Fatalf("len %d, want 4", c.len())
	}
	c.get("k0") // refresh k0; k1 is now the LRU entry
	c.put("k4", 1, []byte{4})
	if _, _, ok := c.get("k1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.get("k0"); !ok {
		t.Fatal("recently used entry evicted")
	}
	// A sharded cache never grows past its capacity, however the hash
	// distributes the keys.
	sharded := newResultCache(8, 4)
	for i := 0; i < 64; i++ {
		sharded.put(fmt.Sprintf("s%d", i), 1, []byte{byte(i)})
	}
	if sharded.len() > sharded.cap() {
		t.Fatalf("len %d exceeds capacity %d", sharded.len(), sharded.cap())
	}
	// Refreshing an existing key must not duplicate it.
	c.put("fixed", 2, []byte("a"))
	c.put("fixed", 3, []byte("b"))
	if body, version, ok := c.get("fixed"); !ok || string(body) != "b" || version != 3 {
		t.Fatalf("refresh: got %q v%d %v", body, version, ok)
	}
	c.purgeOlder(3)
	if _, _, ok := c.get("fixed"); !ok {
		t.Fatal("purgeOlder dropped a current-version entry")
	}
	c.purgeOlder(4)
	if c.len() != 0 {
		t.Fatalf("purgeOlder(4) left %d entries", c.len())
	}
	if _, _, ok := c.get("fixed"); ok {
		t.Fatal("purged entry still served")
	}
}

// TestCacheDisabled runs the read path with caching off: every request
// computes and no hit is ever recorded.
func TestCacheDisabled(t *testing.T) {
	g := dataset.RandomGraph(15, 10, 24, 2)
	s := newTestServer(t, g, Options{CacheEntries: -1})
	if s.cache != nil {
		t.Fatal("cache allocated despite CacheEntries < 0")
	}
	for i := 0; i < 3; i++ {
		if w := do(t, s, http.MethodGet, "/topk?u=1&k=3", "", nil); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	var sr StatsResponse
	do(t, s, http.MethodGet, "/stats", "", &sr)
	if sr.CacheHits != 0 || sr.CacheMisses != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3", sr.CacheHits, sr.CacheMisses)
	}
}

// TestFlightGroupLeaderPanic asserts a panicking leader cannot wedge a
// flight key: waiting followers receive an error instead of blocking
// forever, the panic propagates to the leader's caller, and later calls
// for the same key start a fresh flight.
func TestFlightGroupLeaderPanic(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanicked := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic was swallowed")
			}
			close(leaderPanicked)
		}()
		g.do("k", func() ([]byte, uint64, error) {
			close(entered)
			<-release
			panic("compute blew up")
		})
	}()
	<-entered

	followerDone := make(chan error, 1)
	go func() {
		_, _, err, _ := g.do("k", func() ([]byte, uint64, error) {
			t.Error("follower executed fn while leader was registered")
			return nil, 0, nil
		})
		followerDone <- err
	}()
	waitForFlightWaiters(t, &g, "k", 1)
	close(release)
	<-leaderPanicked
	if err := <-followerDone; err == nil {
		t.Fatal("follower got a nil error after the leader panicked")
	}
	// The key is not wedged: a fresh call runs.
	body, _, err, shared := g.do("k", func() ([]byte, uint64, error) { return []byte("ok"), 0, nil })
	if string(body) != "ok" || err != nil || shared {
		t.Fatalf("post-panic flight: body=%q err=%v shared=%v", body, err, shared)
	}
}

// TestUpdateBodyTooLarge asserts oversized /updates bodies get 413, not a
// misleading 400.
func TestUpdateBodyTooLarge(t *testing.T) {
	g := dataset.RandomGraph(25, 8, 16, 2)
	s := newTestServer(t, g, Options{MaxUpdateBytes: 16})
	w := do(t, s, http.MethodPost, "/updates", strings.Repeat("+e 0 1\n", 100), nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", w.Code, w.Body.String())
	}
	// A batch within the limit still works.
	if w := do(t, s, http.MethodPost, "/updates", "+e 0 1\n", nil); w.Code != http.StatusOK {
		t.Fatalf("small body after 413: status %d", w.Code)
	}
}
