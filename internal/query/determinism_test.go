package query

import (
	"fmt"
	"math"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// TestTopKParallelDeterminism pins the serving-path contract under the
// dynamic chunk queue: an Index built and queried at any Threads setting
// returns bit-identical TopK lists — same node identities, same score
// bits, same tie-breaks. The serving configuration (FSim_bj, θ = 0.6,
// §3.4 pruning, pinned iterations) mirrors the serving experiments.
func TestTopKParallelDeterminism(t *testing.T) {
	spec := dataset.PowerLaw(250, 1500, 60, 1.1, 23)
	g := spec.Generate()
	type entry struct {
		index int
		bits  uint64
	}
	var want [][]entry
	for _, threads := range []int{1, 2, 4, 8} {
		opts := core.DefaultOptions(exact.BJ)
		opts.Theta = 0.6
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.5}
		opts.Epsilon = 1e-300
		opts.RelativeEps = false
		opts.MaxIters = 6
		opts.Threads = threads
		ix, err := New(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]entry
		for u := 0; u < g.NumNodes(); u += 11 {
			top, err := ix.TopK(graph.NodeID(u), 10)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]entry, len(top))
			for i, r := range top {
				row[i] = entry{index: r.Index, bits: math.Float64bits(r.Score)}
			}
			got = append(got, row)
		}
		if want == nil {
			want = got
			continue
		}
		for r := range want {
			if fmt.Sprint(got[r]) != fmt.Sprint(want[r]) {
				t.Fatalf("threads=%d: TopK row %d differs:\n got %v\nwant %v",
					threads, r, got[r], want[r])
			}
		}
	}
}
