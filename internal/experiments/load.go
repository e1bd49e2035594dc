package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsim/internal/graph"
	"fsim/internal/server"
	"fsim/internal/stats"
)

// request is one request of a load run. A non-empty body makes it a POST.
type request struct {
	target string
	body   string
}

func (r request) method() string {
	if r.body != "" {
		return http.MethodPost
	}
	return http.MethodGet
}

// updates is the /updates request that writes one change batch.
func updates(batch []graph.Change) request {
	var sb strings.Builder
	_ = graph.WriteChanges(&sb, batch) // a strings.Builder cannot fail
	return request{target: "/updates", body: sb.String()}
}

// updateBatches pre-generates n batches of `size` changes from the
// updateStream seeded with seed, each applied to a private copy of g so
// later batches stay valid after earlier ones. Runs that share the
// batches absorb the identical write stream.
func updateBatches(g *graph.Graph, seed int64, n, size int) ([][]graph.Change, error) {
	stream := &updateStream{rng: rand.New(rand.NewSource(seed)), m: graph.MutableOf(g)}
	batches := make([][]graph.Change, n)
	for b := range batches {
		batches[b] = make([]graph.Change, size)
		for i := range batches[b] {
			batches[b][i] = stream.next()
			if _, err := stream.m.Apply(batches[b][i]); err != nil {
				return nil, err
			}
		}
	}
	return batches, nil
}

// requestFunc issues one request and returns the response status and its
// X-Fsim-Version token (0 when the response carries none).
type requestFunc func(request) (status int, version uint64, err error)

// inProcess sends requests straight to h.ServeHTTP, so a load measures the
// serving layer without the kernel's TCP stack.
func inProcess(h http.Handler) requestFunc {
	return func(r request) (int, uint64, error) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(r.method(), r.target, strings.NewReader(r.body)))
		v, err := versionOf(w.Header())
		return w.Code, v, err
	}
}

// overHTTP sends requests to baseURL over real sockets.
func overHTTP(client *http.Client, baseURL string) requestFunc {
	return func(r request) (int, uint64, error) {
		req, err := http.NewRequest(r.method(), baseURL+r.target, strings.NewReader(r.body))
		if err != nil {
			return 0, 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, 0, err
		}
		v, err := versionOf(resp.Header)
		return resp.StatusCode, v, err
	}
}

// send issues r through do and returns the version token, failing on
// any status but 200.
func send(do requestFunc, r request) (uint64, error) {
	status, version, err := do(r)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", r.method(), r.target, err)
	}
	return version, nil
}

// versionOf parses a response's version token; a response without one
// reads as version 0.
func versionOf(h http.Header) (uint64, error) {
	s := h.Get(server.VersionHeader)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %w", server.VersionHeader, s, err)
	}
	return v, nil
}

// readMix builds one client's read sequence from its private rng: next(j)
// is the client's j-th read.
type readMix func(rng *rand.Rand) (next func(j int) request)

// hotCenters spreads `n` pool anchors evenly across the graph's node range.
func hotCenters(g *graph.Graph, n int) []graph.NodeID {
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i * (g.NumNodes() / n))
	}
	return out
}

// hotReads is the node-read mix: 95% /topk over the hot nodes with
// Zipf-skewed popularity (the shape a result cache exists for), and every
// 20th read a /query over a distinct hot pair. Two Zipf samples over the
// same hot set collide often, and u == v self-pairs are degenerate
// queries that would inflate the cache hit rate, so v is redrawn until it
// differs from u.
func hotReads(hot []graph.NodeID) readMix {
	return func(rng *rand.Rand) func(int) request {
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(hot)-1))
		return func(j int) request {
			if j%20 != 19 {
				return request{target: fmt.Sprintf("/topk?u=%d&k=10", hot[zipf.Uint64()])}
			}
			u := hot[zipf.Uint64()]
			v := u
			for v == u && len(hot) > 1 {
				v = hot[zipf.Uint64()]
			}
			return request{target: fmt.Sprintf("/query?u=%d&v=%d", u, v)}
		}
	}
}

// poolReads draws every read Zipf-skewed from a fixed pool (rank 0 the
// hottest).
func poolReads(pool []request) readMix {
	return func(rng *rand.Rand) func(int) request {
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(pool)-1))
		return func(int) request { return pool[zipf.Uint64()] }
	}
}

// loadRun aggregates one load pass.
type loadRun struct {
	// Requests is the number of reads served, all with status 200.
	Requests int `json:"requests"`
	// UpdateBatches/UpdateChanges is the write traffic interleaved at
	// fixed points of the read progress.
	UpdateBatches int `json:"update_batches"`
	UpdateChanges int `json:"update_changes"`
	// Seconds is the wall-clock of the whole pass; ThroughputRPS is
	// Requests/Seconds.
	Seconds       float64 `json:"seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Client-observed read latency.
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	MaxLatencyMs  float64 `json:"max_latency_ms"`
}

// runLoad drives one mixed read/write workload through do: `clients`
// goroutines each issue `reads` reads from mix (client c seeds its rng
// with 9000+c, so every run of a mix sends the same requests), while a
// writer posts batch b to /updates once (b+1)·total/(len(batches)+1) reads
// have completed, so every run sees its writes at the same workload
// positions. onWrite, when set, runs on the writer after each write with
// the version token and completion time; an error from it fails the run.
// The first failure stops every client and the writer, and runLoad
// returns it only after all of them have exited.
func runLoad(do requestFunc, clients, reads int, mix readMix, batches [][]graph.Change, onWrite func(version uint64, wrote time.Time) error) (loadRun, error) {
	total := clients * reads
	var done atomic.Int64
	var lat stats.Latency
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(stop)
		})
	}

	start := time.Now()
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for b, batch := range batches {
			threshold := int64((b + 1) * total / (len(batches) + 1))
			for done.Load() < threshold {
				select {
				case <-stop:
					return
				default:
					time.Sleep(200 * time.Microsecond)
				}
			}
			version, err := send(do, updates(batch))
			if err == nil && onWrite != nil {
				err = onWrite(version, time.Now())
			}
			if err != nil {
				fail(fmt.Errorf("updates batch %d: %w", b, err))
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := mix(rand.New(rand.NewSource(int64(9000 + c))))
			for j := 0; j < reads; j++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				_, err := send(do, next(j))
				lat.Observe(time.Since(t0))
				if err != nil {
					fail(err)
					return
				}
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return loadRun{}, firstErr
	}

	changes := 0
	for _, b := range batches {
		changes += len(b)
	}
	return loadRun{
		Requests:      total,
		UpdateBatches: len(batches),
		UpdateChanges: changes,
		Seconds:       elapsed.Seconds(),
		ThroughputRPS: float64(total) / elapsed.Seconds(),
		MeanLatencyMs: float64(lat.Mean()) / float64(time.Millisecond),
		MaxLatencyMs:  float64(lat.Max()) / float64(time.Millisecond),
	}, nil
}

// scrapeStats reads the server-side counters from /stats.
func scrapeStats(h http.Handler) (server.StatsResponse, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var sr server.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		return server.StatsResponse{}, fmt.Errorf("/stats: %w", err)
	}
	return sr, nil
}
