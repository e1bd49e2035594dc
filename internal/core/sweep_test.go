package core

import (
	"fmt"
	"os"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// referenceSweep iterates Equation 3 over cs the way Algorithm 1 states
// it, with no worklist: every round recomputes every slot of the batch
// layout through updateSlot, on one worker. Outside DeltaMode (and at
// DeltaEps = 0) the engine must reproduce its scores, Deltas, Iterations
// and Converged bit for bit while doing at most its work.
func referenceSweep(cs *CandidateSet) *Result {
	e := &engine{CandidateSet: cs, lay: cs.layout(new(ranks))}
	e.prev = make([]float64, e.lay.slots)
	e.cur = make([]float64, e.lay.slots)
	e.initScores()
	e.initWorkers(1)
	st := &e.workers[0].updateState
	res := &Result{
		cs:             cs,
		PrunedCount:    cs.prunedCount,
		CandidateCount: cs.NumCandidates(),
		Work:           make([]int64, 1),
	}
	for it := 1; it <= cs.opts.MaxIters; it++ {
		st.maxAbs, st.maxRel = 0, 0
		for slot := 0; slot < e.lay.slots; slot++ {
			u, v := e.lay.pair(slot)
			e.updateSlot(st, u, v, slot)
		}
		res.Iterations = it
		res.Deltas = append(res.Deltas, st.maxAbs)
		e.prev, e.cur = e.cur, e.prev
		if e.settled(st.maxAbs, st.maxRel) {
			res.Converged = true
			break
		}
	}
	res.Work[0] = st.work
	res.scores = e.prev
	return res
}

// sweepOf runs referenceSweep on a fresh candidate set of (g1, g2, opts).
func sweepOf(t *testing.T, g1, g2 *graph.Graph, opts Options) *Result {
	t.Helper()
	cs, err := NewCandidateSet(g1, g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return referenceSweep(cs)
}

// totalWork sums a result's per-worker work units.
func totalWork(res *Result) int64 {
	var n int64
	for _, w := range res.Work {
		n += w
	}
	return n
}

// requireSweepEquivalent checks that got reproduces the reference sweep
// bit for bit — trajectory, iteration count and every score — without
// doing more work than it.
func requireSweepEquivalent(t *testing.T, ref, got *Result, label string) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
		t.Fatalf("%s: ran %d iterations (converged %v), the sweep %d (%v)",
			label, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
	}
	requireBitIdentical(t, ref.Deltas, got.Deltas, label+": Deltas")
	requireBitIdentical(t, scoresOf(ref), scoresOf(got), label)
	if w, rw := totalWork(got), totalWork(ref); w > rw {
		t.Fatalf("%s: %d work units, more than the sweep's %d", label, w, rw)
	}
}

// TestReferenceSweepEquivalence pins the worklist against the sweep of
// every pair: for every variant and both stores, plain and damped, Compute
// at every thread count reproduces referenceSweep bit for bit. CI runs it
// under -race on a fsimgen graph (see determinismGraph), where the race
// detector watches the workers' writes to the shared dirty bitset.
func TestReferenceSweepEquivalence(t *testing.T) {
	g := determinismGraph(t)
	threads := determinismThreads
	if os.Getenv("FSIM_DETERMINISM_GRAPH") != "" {
		threads = []int{1, 4} // as TestParallelDeterminism, for the -race budget
	}
	kinds := []struct {
		name  string
		tweak func(o *Options)
	}{
		{"dense", func(o *Options) {}},
		{"sparse", func(o *Options) { o.DenseCapPairs = 1 }},
		{"dense-damped", func(o *Options) { o.Damping = 0.5 }},
		{"sparse-damped", func(o *Options) { o.DenseCapPairs = 1; o.Damping = 0.5 }},
	}
	for _, variant := range exact.Variants {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%v/%s", variant, kind.name), func(t *testing.T) {
				opts := DefaultOptions(variant)
				opts.Theta = 0.6
				opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
				opts.Epsilon = 1e-300 // pin the iteration count
				opts.RelativeEps = false
				opts.MaxIters = 5
				kind.tweak(&opts)
				ref := sweepOf(t, g, g, opts)
				for _, threadCount := range threads {
					opts.Threads = threadCount
					res, err := Compute(g, g, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSweepEquivalent(t, ref, res, fmt.Sprintf("threads=%d", threadCount))
				}
			})
		}
	}
}

// TestDefaultRunSkipsWork pins what the worklist buys a default Compute on
// the serving configuration (the root package's servingOptions on
// benchGraph: NELL stand-in, bj, θ = 0.6, α = 0.3 / β = 0.5, one thread):
// the same iterations and scores as the reference sweep, for strictly
// fewer work units.
func TestDefaultRunSkipsWork(t *testing.T) {
	g := dataset.MustPaperSpec("NELL", 240).Generate()
	opts := DefaultOptions(exact.BJ)
	opts.Threads = 1
	opts.Theta = 0.6
	opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.5}
	ref := sweepOf(t, g, g, opts)
	res, err := Compute(g, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSweepEquivalent(t, ref, res, "serving config")
	w, rw := totalWork(res), totalWork(ref)
	if w >= rw {
		t.Fatalf("default Compute did %d work units, the sweep %d: the worklist skipped nothing", w, rw)
	}
	t.Logf("%d iterations: %d work units against the sweep's %d", res.Iterations, w, rw)
}

// TestWorklistDrainsChain covers pairs that leave the worklist right after
// their last change, which the precise propagation must keep at their new
// value in both buffers. On a directed path under w⁻ = 0 a pair reads only
// its successor pair, so a wave of final changes runs from the sinks
// upward and each pair drops off the worklist the round after its last
// change; two lengths cover both parities of the rounds it then sits out.
func TestWorklistDrainsChain(t *testing.T) {
	for _, n := range []int{16, 17} {
		b := graph.NewBuilder()
		prev := b.AddNode("a")
		for i := 1; i < n; i++ {
			next := b.AddNode("a")
			b.MustAddEdge(prev, next)
			prev = next
		}
		g := b.Build()
		opts := DefaultOptions(exact.S)
		opts.WPlus, opts.WMinus = 0.8, 0
		opts.Epsilon = 1e-300
		opts.RelativeEps = false
		opts.MaxIters = 2 * n
		ref := sweepOf(t, g, g, opts)
		for _, threads := range []int{1, 3} {
			opts.Threads = threads
			res, err := Compute(g, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n=%d threads=%d", n, threads)
			requireSweepEquivalent(t, ref, res, label)
			if totalWork(res) >= totalWork(ref) {
				t.Fatalf("%s: the worklist skipped nothing", label)
			}
		}
	}
}
