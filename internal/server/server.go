// Package server is the FSim serving layer: an HTTP JSON API over a live
// dynamic.Maintainer, built for concurrent read traffic against an
// evolving graph.
//
// Read endpoints are Workloads: registered computations the mux, cache
// counters, and the cluster router's route table are generated from (see
// workload.go). The builtin registrations (all responses are JSON):
//
//	GET  /topk?u=<node>&k=<n>         top-k most similar nodes for u
//	GET  /query?u=<u>&v=<v>           the single score FSimχ(u, v)
//	POST /match?variant=<v>           pattern-match the uploaded graph (body =
//	                                  graph text; s, dp, b, bj, or strong)
//	POST /align?variant=<v>&theta=<t> align the uploaded graph's nodes to the
//	                                  live graph (b or bj)
//	GET  /nodesim?u=&v=&measure=<m>   one node-pair similarity (fsim, jaccard,
//	                                  or simgram)
//
// plus the system plane:
//
//	POST /updates               update-stream body ("+n" / "+e" / "-e" lines)
//	GET  /healthz               liveness and current graph version
//	GET  /stats                 serving counters (cache, coalescing, latency)
//
// # Consistency contract
//
// Every read response carries the graphVersion it was computed at, and its
// scores are exactly the scores a fresh core.Compute over the graph at
// that version would produce (bit-identical under a pinned iteration
// budget — the guarantee the maintainer's score store carries). The
// contract survives caching and concurrency by construction:
//
//   - /topk, /query and /nodesim?measure=fsim read the maintainer's score
//     store (TopKAt, ScoreAt), and the other workloads read its graph
//     (GraphAt). Each read stamps the version under the same lock hold
//     that reads the state, and Apply changes both under the write lock —
//     a response can never mix scores from one snapshot with the version
//     of another.
//   - The result cache keys on (endpoint, node args, version). A lookup
//     always uses the current version, so entries from older snapshots are
//     unreachable the instant an update commits; the maintainer's apply
//     hook additionally purges them wholesale to reclaim memory.
//
// # Cost model
//
// A cache hit costs a map lookup. A miss on /topk, /query or
// /nodesim?measure=fsim is a store read: a row scan and sort, or one
// lookup, plus the JSON encoding; the fixed point itself is paid once per
// update, by Apply. Misses on /match, /align and the structural /nodesim
// measures run their computation over the graph. Singleflight coalescing
// collapses N concurrent identical misses into one computation, so a
// thundering herd behind a version bump pays for each distinct key once.
// Misses are admission-controlled by a compute semaphore
// (Options.MaxInFlight); overflow is answered with 429 rather than queued,
// keeping tail latency bounded. Updates serialize through the maintainer's
// writer lock, and store reads wait while an Apply holds it; the graph
// version (/healthz, cache keys) is read without it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fsim/internal/core"
	"fsim/internal/dynamic"
	"fsim/internal/graph"
	"fsim/internal/snapshot"
	"fsim/internal/stats"
)

// Role selects the server's replication role (see the package comment's
// replication section). The zero value is RoleSingle — the standalone
// deployment every earlier PR served.
type Role int

const (
	// RoleSingle is a standalone server: reads and writes, no replication
	// endpoints.
	RoleSingle Role = iota
	// RoleLeader owns the write path of a replicated tier: it additionally
	// retains an in-memory versioned change log and serves GET /changes
	// and GET /snapshot to followers.
	RoleLeader
	// RoleFollower is a read replica: POST /updates is refused (writes go
	// to the leader; the replication loop applies batches directly through
	// the maintainer), and GET /readyz reflects catch-up lag via
	// Options.ReadyCheck.
	RoleFollower
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	}
	return "single"
}

// Options tunes the serving layer (zero value = production defaults).
type Options struct {
	// CacheEntries bounds the result cache. 0 uses the default (4096);
	// negative disables caching entirely (every request computes).
	CacheEntries int
	// MaxInFlight bounds concurrently running score computations (cache
	// misses); excess requests receive 429. 0 uses twice GOMAXPROCS;
	// negative means unlimited.
	MaxInFlight int
	// MaxUpdateBytes caps a POST /updates body. 0 uses the default (8 MiB).
	MaxUpdateBytes int64
	// SnapshotPath, when set, enables crash-safe checkpointing: the
	// server writes a binary snapshot of the maintainer's state
	// (internal/snapshot, atomic temp-file + rename) to this path once
	// more during graceful Shutdown, and — with CheckpointEvery > 0 —
	// after every CheckpointEvery applied update batches. A process
	// restarted from the snapshot (fsim.LoadSnapshot +
	// NewServerFromMaintainer) serves responses byte-identical to the
	// pre-restart server at the snapshot's graph version, without
	// recomputing the fixed point.
	SnapshotPath string
	// CheckpointEvery is the checkpoint cadence in applied update batches
	// (0 disables periodic checkpoints; the Shutdown checkpoint still
	// happens whenever SnapshotPath is set). Checkpoints are written by a
	// background goroutine off the update path, so a slow disk never
	// blocks an Apply.
	CheckpointEvery int
	// Role selects the replication role (default RoleSingle).
	Role Role
	// RetainVersions bounds the leader's retained change log in version
	// steps (RoleLeader only; 0 or negative uses
	// dynamic.DefaultRetainVersions). A follower whose version falls
	// behind the retained window receives 410 Gone from GET /changes and
	// must re-sync from GET /snapshot.
	RetainVersions int
	// ReadyCheck, when set, gates GET /readyz beyond the draining check:
	// the endpoint answers 503 with the returned detail until the check
	// passes. The replication follower wires its catch-up state machine in
	// here; single-role servers leave it nil (always ready once serving).
	ReadyCheck func() (ready bool, detail string)
}

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxUpdateBytes == 0 {
		o.MaxUpdateBytes = 8 << 20
	}
	return o
}

// Server is the serving layer's http.Handler. Build one with New or
// NewFromMaintainer, mount it on any http.Server, and stop it with
// Shutdown. All exported methods are safe for concurrent use.
type Server struct {
	mt   *dynamic.Maintainer
	opts Options

	// workloads is this server's snapshot of the workload registry: the
	// mux, per-endpoint counters, and cache counter blocks derive from it.
	workloads map[string]*servedWorkload // by path

	cache   *resultCache // nil when disabled
	flights flightGroup
	sem     chan struct{} // nil when unlimited

	// Checkpointing state (zero unless Options.SnapshotPath is set): the
	// apply hook counts applied batches into ckptPending and pokes ckptCh;
	// a background goroutine drains the channel and writes snapshots, and
	// ckptStop tears it down exactly once during Shutdown.
	ckptCh      chan struct{}
	ckptDone    chan struct{}
	ckptStop    sync.Once
	ckptPending atomic.Int64
	// ckptLastErr holds the most recent checkpoint failure's message (a
	// string; empty after a later success), surfaced through /stats so a
	// climbing error counter is diagnosable without process logs.
	ckptLastErr atomic.Value

	metrics metrics

	mu       sync.Mutex // guards draining / inflight / drained
	draining bool
	inflight int
	drained  chan struct{}
}

// metrics are the system-endpoint /stats counters (see internal/stats);
// workload request counters live on each servedWorkload.
type metrics struct {
	updates, healthz, statsReqs        stats.Counter
	readyz, changesReqs, snapshotReqs  stats.Counter
	hits, misses, coalesced            stats.Counter
	rejected, unavailable, badRequests stats.Counter
	updatesApplied, fullRecomputes     stats.Counter
	checkpoints, checkpointErrors      stats.Counter
	changesServed, changesCompacted    stats.Counter
	snapshotsServed, snapshotErrors    stats.Counter
	computeInFlight                    stats.Gauge
	computeLatency, updateLatency      stats.Latency
}

// New builds a Server over a fresh maintainer: the initial fixed point of
// g against itself is computed here (the expensive part of startup).
func New(g *graph.Graph, opts core.Options, sopts Options) (*Server, error) {
	mt, err := dynamic.New(g, opts)
	if err != nil {
		return nil, err
	}
	return NewFromMaintainer(mt, sopts), nil
}

// NewFromMaintainer wraps an existing maintainer. The server takes
// ownership: it registers the maintainer's apply hook for cache
// invalidation and closes the maintainer on Shutdown.
func NewFromMaintainer(mt *dynamic.Maintainer, sopts Options) *Server {
	sopts = sopts.withDefaults()
	s := &Server{mt: mt, opts: sopts}
	s.workloads = map[string]*servedWorkload{}
	for _, w := range registered() {
		spec := w.Spec()
		s.workloads[spec.Path] = &servedWorkload{w: w, spec: spec}
	}
	if sopts.Role == RoleLeader {
		retain := sopts.RetainVersions
		if retain < 0 {
			retain = 0
		}
		// 0 falls back to dynamic.DefaultRetainVersions; errors are
		// impossible with the clamped arguments.
		mt.RetainChanges(retain, 0)
	}
	if sopts.CacheEntries > 0 {
		s.cache = newResultCache(sopts.CacheEntries, cacheShards)
		for _, sw := range s.workloads {
			s.cache.registerEndpoint(sw.spec.Name)
		}
	}
	if sopts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, sopts.MaxInFlight)
	}
	if sopts.SnapshotPath != "" {
		s.ckptCh = make(chan struct{}, 1)
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	mt.SetApplyHook(func(version uint64, st dynamic.Stats) {
		s.metrics.updatesApplied.Add(int64(st.Applied))
		if st.Full {
			s.metrics.fullRecomputes.Inc()
		}
		if s.cache != nil {
			s.cache.purgeOlder(version)
		}
		// The hook runs under the maintainer's write lock, so it only
		// counts and pokes; the checkpoint itself (which needs the read
		// lock) happens on the background goroutine.
		if s.ckptCh != nil && s.opts.CheckpointEvery > 0 &&
			s.ckptPending.Add(1) >= int64(s.opts.CheckpointEvery) {
			s.ckptPending.Store(0)
			select {
			case s.ckptCh <- struct{}{}:
			default: // a checkpoint is already queued; it will cover this batch's version or a newer one
			}
		}
	})
	return s
}

// checkpointLoop serializes snapshot writes off the update path.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	for range s.ckptCh {
		s.writeCheckpoint()
	}
}

// writeCheckpoint persists the maintainer's current state to
// Options.SnapshotPath and returns the save error. Periodic-checkpoint
// failures are counted and their cause exposed in /stats, not fatal: the
// previous snapshot stays intact (the writer renames atomically), so a
// transient disk error only widens the recovery window. The FINAL
// Shutdown checkpoint must not rely on those counters — they are
// unreachable once the server has drained — so stopCheckpointer
// propagates the returned error instead.
func (s *Server) writeCheckpoint() error {
	if err := snapshot.Save(s.mt, s.opts.SnapshotPath); err != nil {
		s.metrics.checkpointErrors.Inc()
		s.ckptLastErr.Store(err.Error())
		return err
	}
	s.metrics.checkpoints.Inc()
	s.ckptLastErr.Store("")
	return nil
}

// stopCheckpointer shuts the checkpoint goroutine down and writes the
// final Shutdown checkpoint, so a graceful stop leaves the freshest state
// on disk. It respects the caller's deadline: when ctx expires while an
// in-flight periodic checkpoint is still writing, the final checkpoint is
// abandoned rather than blocking Shutdown past its grace period — the
// goroutine finishes its current write in the background and the
// previous snapshot stays valid; that abandonment is reported as an error
// (wrapping ctx's), as is a failed final write — the caller is the only
// one left who can surface it. Idempotent (later calls return nil); a
// no-op when checkpointing is off.
func (s *Server) stopCheckpointer(ctx context.Context) error {
	if s.ckptCh == nil {
		return nil
	}
	var err error
	s.ckptStop.Do(func() {
		close(s.ckptCh)
		select {
		case <-s.ckptDone:
			if ctx.Err() == nil {
				if werr := s.writeCheckpoint(); werr != nil {
					err = fmt.Errorf("final checkpoint: %w", werr)
				}
			} else {
				err = fmt.Errorf("final checkpoint skipped: %w", ctx.Err())
			}
		case <-ctx.Done():
			err = fmt.Errorf("final checkpoint skipped: %w", ctx.Err())
		}
	})
	return err
}

// Maintainer exposes the owned maintainer (read-mostly callers: tests and
// the in-process load benchmark).
func (s *Server) Maintainer() *dynamic.Maintainer { return s.mt }

// RankedScore is one entry of a top-k response.
type RankedScore struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// TopKResponse is the GET /topk body.
type TopKResponse struct {
	U            int           `json:"u"`
	K            int           `json:"k"`
	GraphVersion uint64        `json:"graphVersion"`
	Results      []RankedScore `json:"results"`
}

// QueryResponse is the GET /query body.
type QueryResponse struct {
	U            int     `json:"u"`
	V            int     `json:"v"`
	GraphVersion uint64  `json:"graphVersion"`
	Score        float64 `json:"score"`
}

// UpdateResponse is the POST /updates body.
type UpdateResponse struct {
	GraphVersion uint64  `json:"graphVersion"`
	Submitted    int     `json:"submitted"`
	Applied      int     `json:"applied"`
	Full         bool    `json:"full"`
	Seeds        int     `json:"seeds"`
	Cone         int     `json:"cone"`
	LocalPairs   int     `json:"localPairs"`
	Iterations   int     `json:"iterations"`
	DurationMs   float64 `json:"durationMs"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status       string `json:"status"`
	GraphVersion uint64 `json:"graphVersion"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`
}

// LatencyStats summarizes one Latency counter in milliseconds.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	MaxMs  float64 `json:"maxMs"`
}

// ReplicationStats is the /stats block a leader reports about its change
// log and the replication traffic it has served.
type ReplicationStats struct {
	ChangesRequests  int64  `json:"changesRequests"`
	ChangesServed    int64  `json:"changesServed"`
	ChangesCompacted int64  `json:"changesCompacted"`
	SnapshotRequests int64  `json:"snapshotRequests"`
	SnapshotsServed  int64  `json:"snapshotsServed"`
	SnapshotErrors   int64  `json:"snapshotErrors"`
	LogVersions      int    `json:"logVersions"`
	LogChanges       int    `json:"logChanges"`
	LogOldestVersion uint64 `json:"logOldestVersion"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	GraphVersion   uint64           `json:"graphVersion"`
	Role           string           `json:"role"`
	Nodes          int              `json:"nodes"`
	Edges          int              `json:"edges"`
	Requests       map[string]int64 `json:"requests"`
	CacheEntries   int              `json:"cacheEntries"`
	CacheCapacity  int              `json:"cacheCapacity"`
	CacheHits      int64            `json:"cacheHits"`
	CacheMisses    int64            `json:"cacheMisses"`
	Coalesced      int64            `json:"coalesced"`
	InFlight       int64            `json:"inFlight"`
	InFlightMax    int64            `json:"inFlightMax"`
	InFlightLimit  int              `json:"inFlightLimit"`
	Rejected       int64            `json:"rejected"`
	Unavailable    int64            `json:"unavailable"`
	BadRequests    int64            `json:"badRequests"`
	UpdatesApplied int64            `json:"updatesApplied"`
	FullRecomputes int64            `json:"fullRecomputes"`
	Checkpoints    int64            `json:"checkpoints"`
	CheckpointErrs int64            `json:"checkpointErrors"`
	// LastCheckpointError carries the most recent checkpoint failure's
	// message (empty once a later checkpoint succeeds).
	LastCheckpointError string       `json:"lastCheckpointError,omitempty"`
	ComputeLatency      LatencyStats `json:"computeLatency"`
	UpdateLatency       LatencyStats `json:"updateLatency"`
	// Cache breaks the result cache down per registered workload ("topk",
	// "query", "match", "align", "nodesim", …): hits/misses measured at
	// the cache, LRU evictions, and version-bump purges. Absent when
	// caching is disabled.
	Cache map[string]CacheEndpointStats `json:"cache,omitempty"`
	// Replication reports the leader's change-log occupancy and served
	// replication traffic. Absent on non-leader roles.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// errOverloaded marks a compute slot admission failure (→ 429).
var errOverloaded = errors.New("server: compute admission limit reached")

// Replication wire headers. Read responses carry the graph version their
// body was computed at in VersionHeader (the same value as the JSON
// field, lifted into a header so routers enforce read-your-writes without
// parsing bodies); GET /changes stamps the covered version window into
// FromVersionHeader/ToVersionHeader.
const (
	versionHeader     = "X-Fsim-Version"
	fromVersionHeader = "X-Fsim-From-Version"
	toVersionHeader   = "X-Fsim-To-Version"
)

// VersionHeader is the response header carrying the graph version a read
// body was computed at (exported for routing clients).
const VersionHeader = versionHeader

// ServeHTTP routes the endpoints: registered workloads first (the mux is
// the registry snapshot, not a switch), then the system plane.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.workloads[r.URL.Path]; ok {
		s.handleWorkload(w, r, sw)
		return
	}
	switch r.URL.Path {
	case "/updates":
		s.handleUpdates(w, r)
	case "/healthz":
		s.handleHealthz(w, r)
	case "/readyz":
		s.handleReadyz(w, r)
	case "/changes":
		s.handleChanges(w, r)
	case "/snapshot":
		s.handleSnapshot(w, r)
	case "/stats":
		s.handleStats(w, r)
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no such endpoint %q", r.URL.Path)})
	}
}

// enter admits one compute/update request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) leave() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	s.mu.Unlock()
}

// Shutdown gracefully drains the server: new compute and update requests
// are refused with 503 immediately, in-flight ones run to completion (or
// until ctx expires), and the maintainer is closed so late writers get
// dynamic.ErrClosed rather than mutating a drained server. When
// checkpointing is configured (Options.SnapshotPath), the final state is
// written once more after the maintainer closes, so a restart resumes
// from exactly the drained version — unless ctx has already expired, in
// which case the final write is skipped and the previous checkpoint
// remains the recovery point, keeping Shutdown inside the caller's grace
// period. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.inflight > 0 {
			s.drained = make(chan struct{})
		}
	}
	ch := s.drained
	s.mu.Unlock()
	var err error
	if ch != nil {
		select {
		case <-ch:
			err = s.mt.Close()
		case <-ctx.Done():
			// The drain timed out, but the shutdown contract — late
			// writers get dynamic.ErrClosed — must hold regardless:
			// close the maintainer anyway. Reads still in flight finish
			// against the final snapshot (Close only refuses Apply).
			s.mt.Close()
			err = ctx.Err()
		}
	} else {
		err = s.mt.Close()
	}
	// Closed means no further Apply can commit, so this checkpoint is the
	// final word on the served state (reads never mutate it). A failed or
	// abandoned final checkpoint surfaces in the returned error — the
	// /stats counters it also bumps are unreachable after the drain.
	if cerr := s.stopCheckpointer(ctx); cerr != nil {
		err = errors.Join(err, cerr)
	}
	return err
}

// serveComputed is the shared read path every workload rides:
// version-stamped cache lookup, coalesced + admission-controlled
// computation on miss, cache fill. The compute callback returns the
// marshaled body and the version its scores were computed at (which may be
// newer than the looked-up version when an update commits concurrently;
// the body is stamped either way, so the response stays self-consistent).
func (s *Server) serveComputed(w http.ResponseWriter, baseKey string, admission AdmissionClass, compute ComputeFunc) {
	if !s.enter() {
		s.unavailable(w)
		return
	}
	defer s.leave()

	key := fmt.Sprintf("%s/%d", baseKey, s.mt.Version())
	if s.cache != nil {
		if body, version, ok := s.cache.get(key); ok {
			s.metrics.hits.Inc()
			w.Header().Set("X-Fsim-Cache", "hit")
			w.Header().Set(versionHeader, strconv.FormatUint(version, 10))
			writeBody(w, http.StatusOK, body)
			return
		}
	}
	s.metrics.misses.Inc()

	run := func() ([]byte, uint64, error) {
		if s.sem != nil && admission == AdmitCompute {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				return nil, 0, errOverloaded
			}
		}
		s.metrics.computeInFlight.Inc()
		defer s.metrics.computeInFlight.Dec()
		t0 := time.Now()
		body, version, err := compute()
		s.metrics.computeLatency.Observe(time.Since(t0))
		if err != nil {
			return nil, 0, err
		}
		if s.cache != nil {
			s.cache.put(fmt.Sprintf("%s/%d", baseKey, version), version, body)
		}
		return body, version, nil
	}

	body, version, err, shared := s.flights.do(key, run)
	if shared {
		s.metrics.coalesced.Inc()
	}
	switch {
	case errors.Is(err, errOverloaded):
		s.metrics.rejected.Inc()
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, errFlightPanicked):
		// A follower observed the leader's computation panic; the panic
		// itself propagates on the leader's goroutine.
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	case err != nil:
		// Reads fail only on invalid parameters — a client error.
		s.badRequest(w, err)
	default:
		w.Header().Set("X-Fsim-Cache", "miss")
		w.Header().Set(versionHeader, strconv.FormatUint(version, 10))
		writeBody(w, http.StatusOK, body)
	}
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	s.metrics.updates.Inc()
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	if s.opts.Role == RoleFollower {
		// The replication loop is the only writer on a follower; it applies
		// batches directly through the maintainer. External writes must go
		// to the leader (the router forwards them there).
		s.metrics.badRequests.Inc()
		writeJSON(w, http.StatusForbidden, errorResponse{Error: "follower is read-only: send writes to the leader"})
		return
	}
	if !s.enter() {
		s.unavailable(w)
		return
	}
	defer s.leave()

	// Read the body before parsing: a truncated stream would otherwise
	// surface as a bogus parse error on its cut-off last line instead of
	// the size limit.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxUpdateBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.badRequests.Inc()
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
			return
		}
		s.badRequest(w, err)
		return
	}
	changes, err := graph.ReadChanges(bytes.NewReader(body))
	if err != nil {
		s.badRequest(w, err)
		return
	}
	t0 := time.Now()
	st, err := s.mt.Apply(changes)
	s.metrics.updateLatency.Observe(time.Since(t0))
	switch {
	case errors.Is(err, dynamic.ErrClosed):
		s.unavailable(w)
		return
	case err != nil:
		// Apply validates the batch before mutating; failures are
		// out-of-range or malformed changes — client errors.
		s.badRequest(w, err)
		return
	}
	// Writes carry the resulting version in the header too, so routing
	// clients can lift their read-your-writes token without parsing the
	// body.
	w.Header().Set(versionHeader, strconv.FormatUint(st.Version, 10))
	writeJSON(w, http.StatusOK, UpdateResponse{
		GraphVersion: st.Version,
		Submitted:    len(changes),
		Applied:      st.Applied,
		Full:         st.Full,
		Seeds:        st.Seeds,
		Cone:         st.Cone,
		LocalPairs:   st.LocalPairs,
		Iterations:   st.Iterations,
		DurationMs:   float64(st.Duration) / float64(time.Millisecond),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.healthz.Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	g := s.mt.Graph()
	resp := HealthResponse{Status: "ok", GraphVersion: s.mt.Version(), Nodes: g.NumNodes(), Edges: g.NumEdges()}
	code := http.StatusOK
	s.mu.Lock()
	if s.draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.mu.Unlock()
	writeJSON(w, code, resp)
}

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Status       string `json:"status"`
	Role         string `json:"role"`
	GraphVersion uint64 `json:"graphVersion"`
	Detail       string `json:"detail,omitempty"`
}

// handleReadyz is the traffic-readiness probe: unlike /healthz (liveness),
// it answers 503 while the server is draining or — through
// Options.ReadyCheck — while a follower has not caught up to the leader
// within its configured lag. Routers use it to admit replicas to the ring.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.metrics.readyz.Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	resp := ReadyResponse{Status: "ready", Role: s.opts.Role.String(), GraphVersion: s.mt.Version()}
	code := http.StatusOK
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		resp.Status, code = "draining", http.StatusServiceUnavailable
	case s.opts.ReadyCheck != nil:
		if ok, detail := s.opts.ReadyCheck(); !ok {
			resp.Status, resp.Detail, code = "syncing", detail, http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, resp)
}

// handleChanges serves the leader's retained change log: the batches a
// follower at version `from` must apply, in order, to reach the current
// version. The body is the update-stream text format with one
// "# version N" marker per step (dynamic.WriteChangeStream); the covered
// window is stamped into X-Fsim-From-Version/X-Fsim-To-Version. A `from`
// compacted out of the log answers 410 Gone — the follower must re-sync
// from GET /snapshot.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	s.metrics.changesReqs.Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.opts.Role != RoleLeader {
		s.metrics.badRequests.Inc()
		writeJSON(w, http.StatusForbidden, errorResponse{Error: fmt.Sprintf("role %q does not serve the change log", s.opts.Role)})
		return
	}
	if !s.enter() {
		s.unavailable(w)
		return
	}
	defer s.leave()
	from, err := uint64Param(r, "from")
	if err != nil {
		s.badRequest(w, err)
		return
	}
	steps, current, err := s.mt.ChangesSince(from)
	switch {
	case errors.Is(err, dynamic.ErrLogCompacted):
		s.metrics.changesCompacted.Inc()
		writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
		return
	case err != nil:
		s.badRequest(w, err)
		return
	}
	for _, step := range steps {
		s.metrics.changesServed.Add(int64(len(step.Changes)))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set(fromVersionHeader, strconv.FormatUint(from, 10))
	w.Header().Set(toVersionHeader, strconv.FormatUint(current, 10))
	w.WriteHeader(http.StatusOK)
	// A write failure mid-stream means the client disconnected; it will
	// retry. The version-marker framing makes a truncated body detectable
	// on the follower side (ReadChangeStream rejects an empty last step,
	// and the To header must match the last applied version).
	dynamic.WriteChangeStream(w, steps)
}

// handleSnapshot streams a binary snapshot of the maintainer's current
// state (the PR 5 codec — CRC-framed and corruption-rejecting on load), a
// follower's warm-start and re-sync source. The maintainer's read lock is
// held for the duration of the stream, so the snapshot is one consistent
// version; the X-Fsim-Version header is advisory (stamped before the body
// begins) — the authoritative version travels inside the snapshot itself.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.metrics.snapshotReqs.Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.opts.Role != RoleLeader {
		s.metrics.badRequests.Inc()
		writeJSON(w, http.StatusForbidden, errorResponse{Error: fmt.Sprintf("role %q does not serve snapshots", s.opts.Role)})
		return
	}
	if !s.enter() {
		s.unavailable(w)
		return
	}
	defer s.leave()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(versionHeader, strconv.FormatUint(s.mt.Version(), 10))
	if err := snapshot.Write(s.mt, w); err != nil {
		// Headers are already on the wire; the client sees a truncated
		// stream, which the codec's checksums reject on load.
		s.metrics.snapshotErrors.Inc()
		return
	}
	s.metrics.snapshotsServed.Inc()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.statsReqs.Inc()
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	m := &s.metrics
	g := s.mt.Graph()
	resp := StatsResponse{
		GraphVersion: s.mt.Version(),
		Role:         s.opts.Role.String(),
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Requests: map[string]int64{
			"updates":  m.updates.Value(),
			"healthz":  m.healthz.Value(),
			"readyz":   m.readyz.Value(),
			"changes":  m.changesReqs.Value(),
			"snapshot": m.snapshotReqs.Value(),
			"stats":    m.statsReqs.Value(),
		},
		CacheHits:      m.hits.Value(),
		CacheMisses:    m.misses.Value(),
		Coalesced:      m.coalesced.Value(),
		InFlight:       m.computeInFlight.Level(),
		InFlightMax:    m.computeInFlight.Max(),
		InFlightLimit:  s.opts.MaxInFlight,
		Rejected:       m.rejected.Value(),
		Unavailable:    m.unavailable.Value(),
		BadRequests:    m.badRequests.Value(),
		UpdatesApplied: m.updatesApplied.Value(),
		FullRecomputes: m.fullRecomputes.Value(),
		Checkpoints:    m.checkpoints.Value(),
		CheckpointErrs: m.checkpointErrors.Value(),
		ComputeLatency: latencyStats(&m.computeLatency),
		UpdateLatency:  latencyStats(&m.updateLatency),
	}
	for _, sw := range s.workloads {
		resp.Requests[sw.spec.Name] = sw.requests.Value()
	}
	if msg, ok := s.ckptLastErr.Load().(string); ok {
		resp.LastCheckpointError = msg
	}
	if s.cache != nil {
		resp.CacheEntries = s.cache.len()
		resp.CacheCapacity = s.cache.cap()
		resp.Cache = s.cache.endpointSnapshots()
	}
	if s.opts.Role == RoleLeader {
		ls := s.mt.LogStats()
		resp.Replication = &ReplicationStats{
			ChangesRequests:  m.changesReqs.Value(),
			ChangesServed:    m.changesServed.Value(),
			ChangesCompacted: m.changesCompacted.Value(),
			SnapshotRequests: m.snapshotReqs.Value(),
			SnapshotsServed:  m.snapshotsServed.Value(),
			SnapshotErrors:   m.snapshotErrors.Value(),
			LogVersions:      ls.Versions,
			LogChanges:       ls.Changes,
			LogOldestVersion: ls.OldestVersion,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func latencyStats(l *stats.Latency) LatencyStats {
	return LatencyStats{
		Count:  l.Count(),
		MeanMs: float64(l.Mean()) / float64(time.Millisecond),
		MaxMs:  float64(l.Max()) / float64(time.Millisecond),
	}
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.metrics.badRequests.Inc()
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

func (s *Server) unavailable(w http.ResponseWriter) {
	s.metrics.unavailable.Inc()
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	s.metrics.badRequests.Inc()
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
}

func intParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	// ParseInt at 32 bits keeps values inside the NodeID range; larger
	// ids must be rejected here, not silently wrapped onto a valid node
	// (the same rule as the graph text parsers).
	n, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, raw)
	}
	return int(n), nil
}

func uint64Param(r *http.Request, name string) (uint64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, raw)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil { // marshaling our own response types cannot fail
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, code, body)
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	w.Write([]byte("\n"))
}
