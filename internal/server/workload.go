package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"fsim/internal/align"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/nodesim"
	"fsim/internal/pattern"
	"fsim/internal/stats"
)

// A Workload is one served read endpoint: a named computation over the live
// graph state, described declaratively enough that the serving machinery —
// version-stamped caching, singleflight coalescing, admission control,
// per-endpoint /stats counters, and the cluster router's sharding — applies
// to it without endpoint-specific code. The server's mux, the cache's
// counter blocks, and the router's route table are all generated from the
// registry of Workloads; adding an endpoint is one Register call.
type Workload interface {
	// Spec describes the endpoint. It must be constant for a given
	// workload: the server reads it once at construction.
	Spec() WorkloadSpec
	// Prepare validates the request and returns the canonical cache-key
	// arguments plus the compute callback. args must be a canonical
	// encoding of everything the response depends on besides the graph
	// version (normalized parameters, a content hash for uploaded bodies):
	// the cache key is "<name>/<args>/<version>", so two requests with
	// equal args at one version MUST produce byte-identical bodies.
	// Prepare runs before admission — it must only parse, never compute.
	// A returned *http.MaxBytesError answers 413; any other error 400.
	Prepare(s *Server, r *http.Request) (args string, compute ComputeFunc, err error)
}

// ComputeFunc produces the marshaled response body and the graph version
// the result was computed at. It runs inside the shared read path (after
// cache miss, coalesced, admission-controlled), so it must capture the
// graph state itself — atomically with the version it reports (one of the
// maintainer's version-stamped reads: GraphAt, TopKAt, ScoreAt). Errors
// are client errors (400).
type ComputeFunc func() (body []byte, version uint64, err error)

// AdmissionClass selects how a workload's cache misses are admitted.
type AdmissionClass int

const (
	// AdmitCompute rides the MaxInFlight compute semaphore: concurrent
	// misses beyond the limit answer 429. The right class for anything
	// that touches the fixed point or walks the graph.
	AdmitCompute AdmissionClass = iota
	// AdmitNone bypasses the semaphore: per-request work is trivial and
	// bounding it would only add a contention point.
	AdmitNone
)

// WorkloadSpec is the declarative endpoint description the mux, stats, and
// router metadata are generated from.
type WorkloadSpec struct {
	// Name keys the per-endpoint counters ("requests" and "cache" blocks
	// of /stats) and prefixes cache keys. Must be unique, non-empty, and
	// free of '/'.
	Name string
	// Path is the mux path ("/topk"). Must be unique and must not collide
	// with the system endpoints (/updates, /healthz, /readyz, /changes,
	// /snapshot, /stats).
	Path string
	// Method is the single accepted HTTP method; others answer 405.
	Method string
	// Admission classifies the workload's compute cost.
	Admission AdmissionClass
	// ShardKeyParams names the query parameters whose values form the
	// cluster router's consistent-hash shard key, so a node's working set
	// concentrates on one replica's caches. Empty means the router shards
	// by a hash of the request body (uploaded-graph workloads).
	ShardKeyParams []string
}

// EndpointInfo is the registry metadata exported to routing tiers.
type EndpointInfo struct {
	Name           string
	Path           string
	Method         string
	ShardKeyParams []string
}

// systemPaths are the endpoints the server implements outside the workload
// registry: the write path and the operational plane.
var systemPaths = map[string]bool{
	"/updates":  true,
	"/healthz":  true,
	"/readyz":   true,
	"/changes":  true,
	"/snapshot": true,
	"/stats":    true,
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Workload{} // by path
)

func init() {
	Register(topkWorkload{})
	Register(queryWorkload{})
	Register(matchWorkload{})
	Register(alignWorkload{})
	Register(nodesimWorkload{})
}

// Register adds a workload to the global registry. Servers built afterwards
// serve it; routers built afterwards route it. Like database/sql.Register
// it is meant for init-time wiring and panics on an invalid spec or a
// duplicate name/path.
func Register(w Workload) {
	spec := w.Spec()
	if spec.Name == "" || spec.Path == "" || spec.Method == "" {
		panic(fmt.Sprintf("server: Register: incomplete spec %+v", spec))
	}
	for i := 0; i < len(spec.Name); i++ {
		if spec.Name[i] == '/' {
			panic(fmt.Sprintf("server: Register: name %q must not contain '/'", spec.Name))
		}
	}
	if systemPaths[spec.Path] {
		panic(fmt.Sprintf("server: Register: path %q is a system endpoint", spec.Path))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[spec.Path]; dup {
		panic(fmt.Sprintf("server: Register: duplicate path %q", spec.Path))
	}
	for _, other := range registry {
		if other.Spec().Name == spec.Name {
			panic(fmt.Sprintf("server: Register: duplicate name %q", spec.Name))
		}
	}
	registry[spec.Path] = w
}

// registered snapshots the registry (path-sorted, so iteration order —
// and anything derived from it — is deterministic).
func registered() []Workload {
	registryMu.RLock()
	defer registryMu.RUnlock()
	paths := make([]string, 0, len(registry))
	for p := range registry {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]Workload, len(paths))
	for i, p := range paths {
		out[i] = registry[p]
	}
	return out
}

// Endpoints lists the registered read endpoints' routing metadata. The
// cluster router builds its route table from this, so a newly registered
// workload is forwarded and sharded with zero router changes.
func Endpoints() []EndpointInfo {
	ws := registered()
	out := make([]EndpointInfo, len(ws))
	for i, w := range ws {
		spec := w.Spec()
		out[i] = EndpointInfo{
			Name:           spec.Name,
			Path:           spec.Path,
			Method:         spec.Method,
			ShardKeyParams: append([]string(nil), spec.ShardKeyParams...),
		}
	}
	return out
}

// servedWorkload is one registry entry bound to a server instance, carrying
// its per-endpoint request counter.
type servedWorkload struct {
	w        Workload
	spec     WorkloadSpec
	requests stats.Counter
}

// handleWorkload is the generated handler every registered endpoint shares:
// count, check the method, Prepare (parse/validate, before admission), then
// hand the compute to the cached/coalesced/admitted read path.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request, sw *servedWorkload) {
	sw.requests.Inc()
	if r.Method != sw.spec.Method {
		s.methodNotAllowed(w, sw.spec.Method)
		return
	}
	args, compute, err := sw.w.Prepare(s, r)
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
	s.serveComputed(w, sw.spec.Name+"/"+args, sw.spec.Admission, compute)
}

// readGraphBody reads a request body capped at Options.MaxUpdateBytes and
// parses it as the graph text format, returning the graph together with its
// canonical content hash (the formatting-insensitive cache-key component).
func readGraphBody(s *Server, r *http.Request) (*graph.Graph, string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.opts.MaxUpdateBytes))
	if err != nil {
		return nil, "", err
	}
	g, err := graph.Read(bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	if g.NumNodes() == 0 {
		return nil, "", fmt.Errorf("empty graph body")
	}
	return g, canonicalGraphHash(g), nil
}

// canonicalGraphHash fingerprints a graph's structure — node count, label
// names in node order, edges in CSR order — with FNV-1a. Two uploads that
// parse to the same graph (whatever their comment lines, blank lines, or
// edge order) share the hash, so they share cache entries.
func canonicalGraphHash(g *graph.Graph) string {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	emit := func(x uint64) {
		n := binary.PutUvarint(buf[:], x)
		h.Write(buf[:n])
	}
	emit(uint64(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		label := g.NodeLabelName(graph.NodeID(u))
		emit(uint64(len(label)))
		h.Write([]byte(label))
	}
	g.Edges(func(u, v graph.NodeID) bool {
		emit(uint64(u))
		emit(uint64(v))
		return true
	})
	return strconv.FormatUint(h.Sum64(), 16)
}

// ---- builtin workloads ----

// topkWorkload serves GET /topk — a row of the maintained score store,
// ranked. The first registration; its wire format predates the registry
// and is pinned byte-for-byte by the golden regression test.
type topkWorkload struct{}

func (topkWorkload) Spec() WorkloadSpec {
	return WorkloadSpec{Name: "topk", Path: "/topk", Method: http.MethodGet, ShardKeyParams: []string{"u"}}
}

func (topkWorkload) Prepare(s *Server, r *http.Request) (string, ComputeFunc, error) {
	u, err := intParam(r, "u")
	if err != nil {
		return "", nil, err
	}
	k, err := intParam(r, "k")
	if err != nil {
		return "", nil, err
	}
	compute := func() ([]byte, uint64, error) {
		top, version, err := s.mt.TopKAt(graph.NodeID(u), k)
		if err != nil {
			return nil, 0, err
		}
		resp := TopKResponse{U: u, K: k, GraphVersion: version, Results: make([]RankedScore, len(top))}
		for i, t := range top {
			resp.Results[i] = RankedScore{Node: t.Index, Score: t.Score}
		}
		body, err := json.Marshal(resp)
		return body, version, err
	}
	return fmt.Sprintf("%d/%d", u, k), compute, nil
}

// queryWorkload serves GET /query — one FSimχ score from the maintained
// store.
type queryWorkload struct{}

func (queryWorkload) Spec() WorkloadSpec {
	return WorkloadSpec{Name: "query", Path: "/query", Method: http.MethodGet, ShardKeyParams: []string{"u"}}
}

func (queryWorkload) Prepare(s *Server, r *http.Request) (string, ComputeFunc, error) {
	u, err := intParam(r, "u")
	if err != nil {
		return "", nil, err
	}
	v, err := intParam(r, "v")
	if err != nil {
		return "", nil, err
	}
	compute := func() ([]byte, uint64, error) {
		score, version, err := s.mt.ScoreAt(graph.NodeID(u), graph.NodeID(v))
		if err != nil {
			return nil, 0, err
		}
		body, err := json.Marshal(QueryResponse{U: u, V: v, GraphVersion: version, Score: score})
		return body, version, err
	}
	return fmt.Sprintf("%d/%d", u, v), compute, nil
}

// MatchResponse is the POST /match body: the paper's §5.4 pattern-matching
// case study served against the live graph at the stamped version.
type MatchResponse struct {
	GraphVersion uint64 `json:"graphVersion"`
	// Variant is the normalized matcher variant ("s", "dp", "b", "bj", or
	// "strong" for exact strong simulation).
	Variant string `json:"variant"`
	// Found is false when strong simulation admits no match (FSim variants
	// always produce one — graceful degradation is their point).
	Found bool `json:"found"`
	// Assignment maps each pattern node to a data node (-1 = unassigned).
	Assignment []int   `json:"assignment,omitempty"`
	Score      float64 `json:"score"`
}

// matchWorkload serves POST /match: the request body is a pattern graph in
// the graph text format; the variant query parameter picks the matcher.
type matchWorkload struct{}

func (matchWorkload) Spec() WorkloadSpec {
	return WorkloadSpec{Name: "match", Path: "/match", Method: http.MethodPost}
}

func (matchWorkload) Prepare(s *Server, r *http.Request) (string, ComputeFunc, error) {
	raw := r.URL.Query().Get("variant")
	if raw == "" {
		raw = "s"
	}
	variantName := "strong"
	var variant exact.Variant
	if raw != "strong" {
		v, err := exact.ParseVariant(raw)
		if err != nil {
			return "", nil, fmt.Errorf("bad query parameter variant=%q (want s, dp, b, bj, or strong)", raw)
		}
		variant, variantName = v, v.String()
	}
	q, hash, err := readGraphBody(s, r)
	if err != nil {
		return "", nil, err
	}
	compute := func() ([]byte, uint64, error) {
		g, version := s.mt.GraphAt()
		var m *pattern.Match
		if variantName == "strong" {
			// nil is a legitimate outcome here: exact strong simulation
			// admits no match on any noise (the brittleness Table 6 shows).
			m = pattern.StrongSimMatcher{}.Match(q, g)
		} else {
			matcher := &pattern.FSimMatcher{Variant: variant, Threads: s.mt.Options().Threads}
			var err error
			m, err = matcher.MatchGraph(q, g)
			if err != nil {
				return nil, 0, err
			}
		}
		resp := MatchResponse{GraphVersion: version, Variant: variantName}
		if m != nil {
			resp.Found = true
			resp.Assignment = make([]int, len(m.Assignment))
			for i, d := range m.Assignment {
				resp.Assignment[i] = int(d)
			}
			resp.Score = m.Score
		}
		body, err := json.Marshal(resp)
		return body, version, err
	}
	return variantName + "/" + hash, compute, nil
}

// AlignResponse is the POST /align body: each node of the uploaded graph is
// aligned to its argmax-similar nodes in the live graph (ties listed).
type AlignResponse struct {
	GraphVersion uint64  `json:"graphVersion"`
	Variant      string  `json:"variant"`
	Theta        float64 `json:"theta"`
	// Alignment[u] lists the live-graph nodes aligned to uploaded node u.
	Alignment [][]int `json:"alignment"`
}

// alignWorkload serves POST /align: the body is a second graph to align
// against the live one (the paper's alignment rule Au = argmax FSimχ(u, v);
// only the converse-invariant variants b and bj qualify).
type alignWorkload struct{}

func (alignWorkload) Spec() WorkloadSpec {
	return WorkloadSpec{Name: "align", Path: "/align", Method: http.MethodPost}
}

func (alignWorkload) Prepare(s *Server, r *http.Request) (string, ComputeFunc, error) {
	raw := r.URL.Query().Get("variant")
	if raw == "" {
		raw = "bj"
	}
	variant, err := exact.ParseVariant(raw)
	if err != nil {
		return "", nil, fmt.Errorf("bad query parameter variant=%q (want b or bj)", raw)
	}
	if !variant.ConverseInvariant() {
		return "", nil, fmt.Errorf("alignment requires a converse-invariant variant (b or bj), got %q", variant)
	}
	theta := 1.0
	if rawTheta := r.URL.Query().Get("theta"); rawTheta != "" {
		theta, err = strconv.ParseFloat(rawTheta, 64)
		if err != nil || !(theta > 0 && theta <= 1) {
			return "", nil, fmt.Errorf("bad query parameter theta=%q (want a number in (0, 1])", rawTheta)
		}
	}
	g1, hash, err := readGraphBody(s, r)
	if err != nil {
		return "", nil, err
	}
	compute := func() ([]byte, uint64, error) {
		g2, version := s.mt.GraphAt()
		aligner := &align.FSimAligner{Variant: variant, Threads: s.mt.Options().Threads, Theta: &theta}
		rows, err := aligner.AlignGraphs(g1, g2)
		if err != nil {
			return nil, 0, err
		}
		resp := AlignResponse{GraphVersion: version, Variant: variant.String(), Theta: theta, Alignment: make([][]int, len(rows))}
		for u, row := range rows {
			out := make([]int, len(row))
			for i, v := range row {
				out[i] = int(v)
			}
			resp.Alignment[u] = out
		}
		body, err := json.Marshal(resp)
		return body, version, err
	}
	// %g keeps the theta component canonical (0.50 and 0.5 share entries).
	return fmt.Sprintf("%s/%g/%s", variant, theta, hash), compute, nil
}

// NodeSimResponse is the GET /nodesim body: one node-pair similarity.
type NodeSimResponse struct {
	U            int     `json:"u"`
	V            int     `json:"v"`
	Measure      string  `json:"measure"`
	GraphVersion uint64  `json:"graphVersion"`
	Score        float64 `json:"score"`
}

// nodesimWorkload serves GET /nodesim?u=&v=&measure=. measure "fsim" (the
// default) answers from the maintained store — bit-exact with /query; the
// structural measures ("jaccard", "simgram") are deterministic functions of
// the graph snapshot, computed per pair.
type nodesimWorkload struct{}

func (nodesimWorkload) Spec() WorkloadSpec {
	return WorkloadSpec{Name: "nodesim", Path: "/nodesim", Method: http.MethodGet, ShardKeyParams: []string{"u"}}
}

func (nodesimWorkload) Prepare(s *Server, r *http.Request) (string, ComputeFunc, error) {
	u, err := intParam(r, "u")
	if err != nil {
		return "", nil, err
	}
	v, err := intParam(r, "v")
	if err != nil {
		return "", nil, err
	}
	measure := r.URL.Query().Get("measure")
	if measure == "" {
		measure = "fsim"
	}
	var compute ComputeFunc
	if measure == "fsim" {
		compute = func() ([]byte, uint64, error) {
			score, version, err := s.mt.ScoreAt(graph.NodeID(u), graph.NodeID(v))
			if err != nil {
				return nil, 0, err
			}
			body, err := json.Marshal(NodeSimResponse{U: u, V: v, Measure: measure, GraphVersion: version, Score: score})
			return body, version, err
		}
	} else {
		m, err := nodesim.PairMeasureByName(measure)
		if err != nil {
			return "", nil, err
		}
		compute = func() ([]byte, uint64, error) {
			g, version := s.mt.GraphAt()
			n := g.NumNodes()
			for _, x := range []int{u, v} {
				if x < 0 || x >= n {
					return nil, 0, fmt.Errorf("nodesim: node %d out of range [0,%d)", x, n)
				}
			}
			score := m.PairScore(g, graph.NodeID(u), graph.NodeID(v))
			body, err := json.Marshal(NodeSimResponse{U: u, V: v, Measure: measure, GraphVersion: version, Score: score})
			return body, version, err
		}
	}
	return fmt.Sprintf("%s/%d/%d", measure, u, v), compute, nil
}
