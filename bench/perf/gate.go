package perf

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/query"
	"fsim/internal/server"
	"fsim/internal/stats"
)

// gateRows is how many rows or answers the correctness gate samples.
const gateRows = 64

// scoreDigest is FNV-1a over (u, v, score bits) of every maintained pair:
// two computations agree bit for bit exactly when their digests do.
func scoreDigest(res *core.Result) string {
	h := fnv.New64a()
	var buf [16]byte
	res.ForEach(func(u, v graph.NodeID, score float64) {
		binary.LittleEndian.PutUint32(buf[0:], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(score))
		h.Write(buf[:])
	})
	return strconv.FormatUint(h.Sum64(), 16)
}

// sameRanking reports the first difference between two rankings, comparing
// scores bit for bit.
func sameRanking(got, want []stats.Ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("entry %d is (%d, %v), want (%d, %v)", i, got[i].Index, got[i].Score, want[i].Index, want[i].Score)
		}
	}
	return nil
}

// sampleNodes draws up to k distinct nodes of [0, n).
func sampleNodes(rng *rand.Rand, n, k int) []int {
	p := rng.Perm(n)
	return p[:min(k, n)]
}

// checkBatchRows checks sampled rows of a batch result against the query
// layer's own fixed point on the same graph. On the hub-heavy batch graph
// one query.Index.TopK closes over nearly every candidate pair and costs
// twice a whole Compute, so the rows are checked in one go: a replay
// seeded at every candidate pair of the rows streams the final score of
// each pair in their dependency closure, and each must equal score(u, v)
// bit for bit. The first row's ranking is then checked against
// query.Index.TopK. It returns the number of pairs compared.
func checkBatchRows(score func(u, v graph.NodeID) float64, top func(u graph.NodeID, k int) []stats.Ranked, ix *query.Index, rows []int) (int, error) {
	var seeds []pairbits.Key
	for _, u := range rows {
		ix.Candidates().ForEachCandidate(graph.NodeID(u), func(v graph.NodeID) {
			seeds = append(seeds, pairbits.MakeKey(graph.NodeID(u), v))
		})
	}
	var diff error
	pairs := 0
	if _, err := ix.Replay(seeds, func(u, v graph.NodeID, s float64) {
		pairs++
		if want := score(u, v); diff == nil && math.Float64bits(s) != math.Float64bits(want) {
			diff = fmt.Errorf("pair (%d, %d): the batch result has %v, query.Index.Replay %v", u, v, want, s)
		}
	}); err != nil {
		return pairs, err
	}
	if diff != nil || len(rows) == 0 {
		return pairs, diff
	}
	u := graph.NodeID(rows[0])
	want, err := ix.TopK(u, topK)
	if err != nil {
		return pairs, err
	}
	if err := sameRanking(top(u, topK), want); err != nil {
		return pairs, fmt.Errorf("row %d: Result.TopK differs from query.Index.TopK: %w", u, err)
	}
	return pairs, nil
}

func ranking(resp server.TopKResponse) []stats.Ranked {
	out := make([]stats.Ranked, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = stats.Ranked{Index: r.Node, Score: r.Score}
	}
	return out
}

// checkServedTopK compares served /topk answers for nodes with a fresh
// batch computation over the graph the server holds at version.
func checkServedTopK(get func(u int) (server.TopKResponse, error), ref *core.Result, version uint64, nodes []int) error {
	for _, u := range nodes {
		resp, err := get(u)
		if err != nil {
			return fmt.Errorf("/topk u=%d: %w", u, err)
		}
		if resp.GraphVersion != version {
			return fmt.Errorf("/topk u=%d answered at version %d, want %d", u, resp.GraphVersion, version)
		}
		if err := sameRanking(ranking(resp), ref.TopK(graph.NodeID(u), topK)); err != nil {
			return fmt.Errorf("/topk u=%d differs from a fresh core.Compute: %w", u, err)
		}
	}
	return nil
}
