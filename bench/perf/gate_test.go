package perf

import (
	"math"
	"math/rand"
	"testing"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/query"
	"fsim/internal/server"
	"fsim/internal/stats"
)

func gateFixture(t *testing.T) (*graph.Graph, core.Options, *core.Result) {
	t.Helper()
	g, err := parseGraph(serveInstance(1).text)
	if err != nil {
		t.Fatal(err)
	}
	opts := servingOptions()
	res, err := core.Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, opts, res
}

// The served-answer gate passes on exact answers and trips when a single
// score is off by one ulp or the answer is stamped with another version.
func TestServedGateTripsOnPerturbedScore(t *testing.T) {
	g, _, ref := gateFixture(t)
	nodes := sampleNodes(rand.New(rand.NewSource(1)), g.NumNodes(), gateRows)
	answer := func(nudge int) func(u int) (server.TopKResponse, error) {
		return func(u int) (server.TopKResponse, error) {
			resp := server.TopKResponse{U: u, K: topK}
			for _, r := range ref.TopK(graph.NodeID(u), topK) {
				resp.Results = append(resp.Results, server.RankedScore{Node: r.Index, Score: r.Score})
			}
			if u == nudge && len(resp.Results) > 0 {
				resp.Results[0].Score = math.Nextafter(resp.Results[0].Score, 2)
			}
			return resp, nil
		}
	}
	if err := checkServedTopK(answer(-1), ref, 0, nodes); err != nil {
		t.Fatalf("exact answers tripped the gate: %v", err)
	}
	if err := checkServedTopK(answer(nodes[5]), ref, 0, nodes); err == nil {
		t.Fatal("a score perturbed by one ulp passed the gate")
	}
	if err := checkServedTopK(answer(-1), ref, 1, nodes); err == nil {
		t.Fatal("answers at the wrong version passed the gate")
	}
}

// The batch gate passes on the batch result, and trips when one score of a
// checked row is off by one ulp or the first row's ranking differs.
func TestBatchGateAndDigest(t *testing.T) {
	g, opts, res := gateFixture(t)
	ix, err := query.New(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := sampleNodes(rand.New(rand.NewSource(2)), g.NumNodes(), gateRows)
	pairs, err := checkBatchRows(res.Score, res.TopK, ix, rows)
	if err != nil {
		t.Fatalf("batch rows differ from the query index: %v", err)
	}
	if pairs < len(rows) {
		t.Fatalf("compared %d pairs for %d rows", pairs, len(rows))
	}
	var cand graph.NodeID = -1
	ix.Candidates().ForEachCandidate(graph.NodeID(rows[3]), func(v graph.NodeID) { cand = v })
	if cand < 0 {
		t.Fatalf("row %d has no candidates", rows[3])
	}
	nudged := func(u, v graph.NodeID) float64 {
		s := res.Score(u, v)
		if u == graph.NodeID(rows[3]) && v == cand {
			s = math.Nextafter(s, 2)
		}
		return s
	}
	if _, err := checkBatchRows(nudged, res.TopK, ix, rows); err == nil {
		t.Error("a score perturbed by one ulp passed the batch gate")
	}
	short := func(u graph.NodeID, k int) []stats.Ranked {
		top := res.TopK(u, k)
		return top[:len(top)-1]
	}
	if _, err := checkBatchRows(res.Score, short, ix, rows); err == nil {
		t.Error("a ranking missing its last entry passed the batch gate")
	}
	again, err := core.Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scoreDigest(res) != scoreDigest(again) {
		t.Error("two identical computations have different digests")
	}
	// A different iteration budget moves the scores, and so the digest.
	opts.MaxIters--
	other, err := core.Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scoreDigest(res) == scoreDigest(other) {
		t.Error("the digest did not notice different scores")
	}
}
