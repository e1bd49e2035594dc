package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fsim/internal/align"
	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/nodesim"
	"fsim/internal/pattern"
)

// patternBody is a 3-node pattern over the labels RandomGraph(…, 3) emits.
const patternBody = "n L0\nn L1\nn L2\ne 0 1\ne 1 2\n"

// patternBodyReformatted parses to the identical graph (comments, blank
// lines) — the canonical body hash must make the two share cache entries.
const patternBodyReformatted = "# same pattern, different text\n\nn L0\nn L1\nn L2\n\ne 0 1\ne 1 2\n"

// TestWorkloadErrorPaths is the new endpoints' error table, in the style of
// TestErrorPaths: every malformed request answers the right status without
// touching the graph.
func TestWorkloadErrorPaths(t *testing.T) {
	g := dataset.RandomGraph(5, 8, 16, 2)
	s := newTestServer(t, g, Options{})

	cases := []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodPost, "/match", "?? nonsense", http.StatusBadRequest},                        // malformed pattern body
		{http.MethodPost, "/match", "", http.StatusBadRequest},                                   // empty pattern body
		{http.MethodPost, "/match", "n L0\ne 0 5\n", http.StatusBadRequest},                      // edge out of range
		{http.MethodPost, "/match?variant=zzz", patternBody, http.StatusBadRequest},              // unknown variant
		{http.MethodGet, "/match", "", http.StatusMethodNotAllowed},                              //
		{http.MethodPost, "/align", "?? nonsense", http.StatusBadRequest},                        // malformed graph body
		{http.MethodPost, "/align?variant=s", patternBody, http.StatusBadRequest},                // not converse-invariant
		{http.MethodPost, "/align?variant=dp", patternBody, http.StatusBadRequest},               // not converse-invariant
		{http.MethodPost, "/align?variant=zzz", patternBody, http.StatusBadRequest},              // unknown variant
		{http.MethodPost, "/align?theta=0", patternBody, http.StatusBadRequest},                  // theta out of (0,1]
		{http.MethodPost, "/align?theta=1.5", patternBody, http.StatusBadRequest},                // theta out of (0,1]
		{http.MethodPost, "/align?theta=abc", patternBody, http.StatusBadRequest},                // non-numeric theta
		{http.MethodGet, "/align", "", http.StatusMethodNotAllowed},                              //
		{http.MethodGet, "/nodesim", "", http.StatusBadRequest},                                  // missing params
		{http.MethodGet, "/nodesim?u=0", "", http.StatusBadRequest},                              // missing v
		{http.MethodGet, "/nodesim?u=0&v=1&measure=nope", "", http.StatusBadRequest},             // unknown measure
		{http.MethodGet, "/nodesim?u=99&v=0", "", http.StatusBadRequest},                         // out of range (fsim)
		{http.MethodGet, "/nodesim?u=99&v=0&measure=jaccard", "", http.StatusBadRequest},         // out of range (structural)
		{http.MethodGet, "/nodesim?u=0&v=4294967296&measure=simgram", "", http.StatusBadRequest}, // must not wrap
		{http.MethodPost, "/nodesim?u=0&v=1", "", http.StatusMethodNotAllowed},                   //
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
	var hr HealthResponse
	do(t, s, http.MethodGet, "/healthz", "", &hr)
	if hr.GraphVersion != 0 {
		t.Fatalf("error paths bumped version to %d", hr.GraphVersion)
	}
}

// TestWorkloadBodyTooLarge mirrors TestUpdateBodyTooLarge for the uploaded-
// graph endpoints: the size cap answers 413 before any parsing or compute.
func TestWorkloadBodyTooLarge(t *testing.T) {
	g := dataset.RandomGraph(5, 8, 16, 2)
	s := newTestServer(t, g, Options{MaxUpdateBytes: 32})
	huge := patternBody + strings.Repeat("# padding\n", 16)
	for _, target := range []string{"/match", "/align"} {
		w := do(t, s, http.MethodPost, target, huge, nil)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413 (%s)", target, len(huge), w.Code, w.Body.String())
		}
	}
}

// expectedMatch computes the POST /match wire body directly through the
// library at a known graph — the server must serve these exact bytes.
func expectedMatch(t *testing.T, s *Server, variant string, q, g *graph.Graph, version uint64) string {
	t.Helper()
	resp := MatchResponse{GraphVersion: version, Variant: variant}
	var m *pattern.Match
	if variant == "strong" {
		m = pattern.StrongSimMatcher{}.Match(q, g)
	} else {
		v, err := exact.ParseVariant(variant)
		if err != nil {
			t.Fatal(err)
		}
		m, err = (&pattern.FSimMatcher{Variant: v, Threads: s.mt.Options().Threads}).MatchGraph(q, g)
		if err != nil {
			t.Fatal(err)
		}
	}
	if m != nil {
		resp.Found = true
		resp.Assignment = make([]int, len(m.Assignment))
		for i, d := range m.Assignment {
			resp.Assignment[i] = int(d)
		}
		resp.Score = m.Score
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(body) + "\n"
}

// expectedAlign computes the POST /align wire body directly.
func expectedAlign(t *testing.T, s *Server, variant exact.Variant, theta float64, q, g *graph.Graph, version uint64) string {
	t.Helper()
	aligner := &align.FSimAligner{Variant: variant, Threads: s.mt.Options().Threads, Theta: &theta}
	rows, err := aligner.AlignGraphs(q, g)
	if err != nil {
		t.Fatal(err)
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
	if err != nil {
		t.Fatal(err)
	}
	return string(body) + "\n"
}

// expectedNodeSim computes the GET /nodesim wire body directly. For the
// structural measures the score comes from the library; for fsim from a
// fresh core.Compute on g, independent of the server's maintained store.
func expectedNodeSim(t *testing.T, measure string, u, v int, g *graph.Graph, version uint64) string {
	t.Helper()
	var score float64
	if measure == "fsim" {
		fresh, err := core.Compute(g, g, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		score = fresh.Score(graph.NodeID(u), graph.NodeID(v))
	} else {
		m, err := nodesim.PairMeasureByName(measure)
		if err != nil {
			t.Fatal(err)
		}
		score = m.PairScore(g, graph.NodeID(u), graph.NodeID(v))
	}
	body, err := json.Marshal(NodeSimResponse{U: u, V: v, Measure: measure, GraphVersion: version, Score: score})
	if err != nil {
		t.Fatal(err)
	}
	return string(body) + "\n"
}

// TestWorkloadsMatchLibrarySerially is the consistency property, serially:
// every /match, /align, and /nodesim response is bit-identical to the
// direct library call on the graph at the stamped version — across an
// update, and on cache hits as much as on misses.
func TestWorkloadsMatchLibrarySerially(t *testing.T) {
	g := dataset.RandomGraph(11, 18, 54, 3)
	s := newTestServer(t, g, Options{})
	q, err := graph.Read(strings.NewReader(patternBody))
	if err != nil {
		t.Fatal(err)
	}

	check := func(wantVersion uint64) {
		t.Helper()
		gAt, version := s.mt.GraphAt()
		if version != wantVersion {
			t.Fatalf("GraphAt version %d, want %d", version, wantVersion)
		}
		type req struct {
			method, target, body, want string
		}
		reqs := []req{
			{http.MethodPost, "/match?variant=s", patternBody, expectedMatch(t, s, "s", q, gAt, version)},
			{http.MethodPost, "/match?variant=bj", patternBody, expectedMatch(t, s, "bj", q, gAt, version)},
			{http.MethodPost, "/match?variant=strong", patternBody, expectedMatch(t, s, "strong", q, gAt, version)},
			{http.MethodPost, "/align", patternBody, expectedAlign(t, s, exact.BJ, 1, q, gAt, version)},
			{http.MethodPost, "/align?variant=b&theta=0.5", patternBody, expectedAlign(t, s, exact.B, 0.5, q, gAt, version)},
			{http.MethodGet, "/nodesim?u=1&v=4", "", expectedNodeSim(t, "fsim", 1, 4, gAt, version)},
			{http.MethodGet, "/nodesim?u=1&v=4&measure=jaccard", "", expectedNodeSim(t, "jaccard", 1, 4, gAt, version)},
			{http.MethodGet, "/nodesim?u=1&v=4&measure=simgram", "", expectedNodeSim(t, "simgram", 1, 4, gAt, version)},
		}
		for _, rq := range reqs {
			// Twice: the second round serves from cache and must still match.
			for round := 0; round < 2; round++ {
				w := do(t, s, rq.method, rq.target, rq.body, nil)
				if w.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", rq.method, rq.target, w.Code, w.Body.String())
				}
				if got := w.Body.String(); got != rq.want {
					t.Fatalf("%s %s (round %d) diverges from the direct library call at version %d:\n got %q\nwant %q",
						rq.method, rq.target, round, version, got, rq.want)
				}
				if hdr := w.Header().Get(versionHeader); hdr != fmt.Sprint(version) {
					t.Fatalf("%s %s: version header %q, want %d", rq.method, rq.target, hdr, version)
				}
			}
		}
	}

	check(0)

	// A reformatted-but-identical pattern body must share the cache entry
	// (canonical hash, not raw-byte keying).
	w := do(t, s, http.MethodPost, "/match?variant=s", patternBodyReformatted, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("reformatted /match: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Fsim-Cache"); got != "hit" {
		t.Fatalf("reformatted-but-identical pattern body: cache %q, want hit", got)
	}

	// After an update the version bumps and every response recomputes
	// against the new snapshot.
	mirror := graph.MutableOf(g)
	var lines []string
	for i := 0; i < 2; i++ {
		c := effectiveChange(mirror, int64(70+i))
		if _, err := mirror.Apply(c); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, c.String())
	}
	if w := do(t, s, http.MethodPost, "/updates", strings.Join(lines, "\n")+"\n", nil); w.Code != http.StatusOK {
		t.Fatalf("updates: status %d: %s", w.Code, w.Body.String())
	}
	check(1)

	// The new endpoints surface in the per-endpoint /stats counters.
	var sr StatsResponse
	do(t, s, http.MethodGet, "/stats", "", &sr)
	for _, name := range []string{"match", "align", "nodesim"} {
		if sr.Requests[name] == 0 {
			t.Errorf("stats requests[%s] = 0, want > 0", name)
		}
		cs, ok := sr.Cache[name]
		if !ok {
			t.Errorf("stats cache map has no %q block", name)
			continue
		}
		if cs.Hits == 0 || cs.Misses == 0 {
			t.Errorf("stats cache[%s] = %+v, want both hits and misses", name, cs)
		}
	}
}

// TestWorkloadConsistencyUnderUpdates is the same property under the race
// detector's eye: concurrent readers across all three new endpoints while a
// writer streams updates. Every response must be bit-identical to the
// direct library call on the snapshot at its stamped version — a response
// pairing one version's scores with another version's stamp (the hazard
// GraphAt exists to prevent) fails the comparison.
func TestWorkloadConsistencyUnderUpdates(t *testing.T) {
	g := dataset.RandomGraph(21, 16, 48, 3)
	opts := testOptions()
	s, err := New(g, opts, Options{MaxInFlight: -1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()

	const batches = 6
	mirror := graph.MutableOf(g)
	snapshots := map[uint64]*graph.Graph{0: g}
	bodies := make([]string, batches)
	rng := rand.New(rand.NewSource(99))
	for b := 0; b < batches; b++ {
		var lines []string
		for i := 0; i < 2; i++ {
			c := randomEffectiveChange(rng, mirror)
			if _, err := mirror.Apply(c); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, c.String())
		}
		bodies[b] = strings.Join(lines, "\n") + "\n"
		snapshots[uint64(b+1)] = mirror.Snapshot()
	}

	type observed struct {
		method, target, body string
		version              uint64
		got                  string
	}
	const readers = 6
	const readsPerReader = 12
	var wg sync.WaitGroup
	obs := make([][]observed, readers)
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			r := httptest.NewRequest(http.MethodPost, "/updates", strings.NewReader(bodies[b]))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("updates batch %d: status %d: %s", b, w.Code, w.Body.String())
				return
			}
		}
	}()

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + i)))
			for j := 0; j < readsPerReader; j++ {
				var method, target, body string
				switch j % 3 {
				case 0:
					method, target, body = http.MethodPost, "/match?variant=s", patternBody
				case 1:
					method, target, body = http.MethodPost, "/align", patternBody
				default:
					u, v := rng.Intn(n), rng.Intn(n)
					measure := []string{"fsim", "jaccard", "simgram"}[rng.Intn(3)]
					method, target = http.MethodGet, fmt.Sprintf("/nodesim?u=%d&v=%d&measure=%s", u, v, measure)
				}
				var r *http.Request
				if body == "" {
					r = httptest.NewRequest(method, target, nil)
				} else {
					r = httptest.NewRequest(method, target, strings.NewReader(body))
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: %s %s: status %d: %s", i, method, target, w.Code, w.Body.String())
					return
				}
				var stamp struct {
					GraphVersion uint64 `json:"graphVersion"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &stamp); err != nil {
					errs <- err
					return
				}
				obs[i] = append(obs[i], observed{method: method, target: target, body: body, version: stamp.GraphVersion, got: w.Body.String()})
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Verify: recompute each observed (endpoint, version) once through the
	// library and demand byte equality. The index cannot be rewound, so
	// fsim-measure observations are verified against a fresh reference
	// server built on the snapshot instead.
	refs := map[uint64]*Server{}
	refFor := func(version uint64) *Server {
		ref, ok := refs[version]
		if !ok {
			ref = newTestServer(t, snapshots[version], Options{MaxInFlight: -1})
			refs[version] = ref
		}
		return ref
	}
	want := map[string]string{}
	for _, readerObs := range obs {
		for _, o := range readerObs {
			if _, ok := snapshots[o.version]; !ok {
				t.Fatalf("%s %s stamped version %d, which the writer never produced", o.method, o.target, o.version)
			}
			key := fmt.Sprintf("%s@%d", o.target, o.version)
			w, ok := want[key]
			if !ok {
				ref := refFor(o.version)
				rec := do(t, ref, o.method, o.target, o.body, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("reference %s %s at version %d: status %d: %s", o.method, o.target, o.version, rec.Code, rec.Body.String())
				}
				// The reference server sits at version 0 whatever snapshot it
				// holds; its scores are the contract, its stamp is not.
				w = strings.Replace(rec.Body.String(), `"graphVersion":0`, fmt.Sprintf(`"graphVersion":%d`, o.version), 1)
				want[key] = w
			}
			if o.got != w {
				t.Fatalf("%s %s at version %d diverges from the library on that snapshot:\n got %q\nwant %q", o.method, o.target, o.version, o.got, w)
			}
		}
	}
}
