package core

import (
	"runtime"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
)

// TestDenseComputeAllocations guards the candidate-aligned dense store: a
// run over a θ > 0 candidate bitmap allocates per candidate, plus bitmap
// ranks of a fraction of a byte per pair, and never a buffer over the
// |V1|×|V2| pair universe. The two float64 buffers such a run once
// allocated took 16 bytes per pair alone, so the bound of 2 bytes per
// pair fails if either comes back.
func TestDenseComputeAllocations(t *testing.T) {
	g := dataset.RandomGraph(41, 600, 2400, 40)
	opts := DefaultOptions(exact.BJ)
	opts.Theta = 1 // only equal labels: a selective candidate bitmap
	opts.Threads = 2
	cs, err := NewCandidateSet(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.dense || cs.allPairs {
		t.Fatal("want the dense store with a candidate bitmap")
	}
	pairs := uint64(g.NumNodes()) * uint64(g.NumNodes())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := ComputeOn(cs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, 2*pairs; got >= limit {
		t.Fatalf("ComputeOn over %d candidates of %d pairs allocated %d bytes, want < %d",
			res.CandidateCount, pairs, got, limit)
	}
}
