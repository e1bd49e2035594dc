// Package core implements FSimχ, the paper's general framework for
// computing fractional χ-simulation scores between all pairs of nodes of
// two node-labeled directed graphs (§3–§4).
//
// The framework is the iterative scheme of Equation 3,
//
//	FSimᵏ(u,v) = w⁺·Mχ/Ωχ over out-neighbors
//	           + w⁻·Mχ/Ωχ over in-neighbors
//	           + (1−w⁺−w⁻)·L(u,v),
//
// where the mapping operator Mχ and normalizing operator Ωχ are configured
// per simulation variant (Table 3). The package provides the four paper
// variants (s, dp, b, bj), the SimRank and RoleSim configurations of §4.3,
// label-constrained mapping (Remark 2), upper-bound pruning (§3.4) and
// deterministic multi-threaded execution.
package core

import (
	"fmt"
	"math"
	"runtime"

	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/strsim"
)

// InitFunc produces FSim⁰(u, v); labelSim is the cached L(ℓ1(u), ℓ2(v)).
// The default initialization returns labelSim (paper §3.3).
type InitFunc func(g1, g2 *graph.Graph, u, v graph.NodeID, labelSim float64) float64

// UpperBound configures the upper-bound updating optimization of §3.4:
// candidate pairs whose score upper bound FSim̄(u,v) (Eq. 6) does not exceed
// Beta are pruned from the candidate map; when a pruned pair's score is
// needed by a neighbor, Alpha·FSim̄ is used instead.
type UpperBound struct {
	// Alpha ∈ [0, 1) scales the upper bound used as the stand-in score of
	// pruned pairs. The paper's default is 0 (ignore pruned pairs).
	Alpha float64
	// Beta ∈ [0, 1] is the pruning threshold; pairs with FSim̄ ≤ Beta are
	// pruned. The paper settles on 0.5.
	Beta float64
}

// Options configures one FSimχ computation.
type Options struct {
	// Variant selects the χ-simulation to quantify. Ignored when Operators
	// is non-nil.
	Variant exact.Variant

	// Operators overrides the variant's mapping/normalizing operators;
	// nil uses OperatorsFor(Variant). This is the extension point §4.3
	// uses for SimRank and RoleSim.
	Operators *Operators

	// WPlus and WMinus are the weighting factors w⁺ and w⁻ of Eq. 1,
	// subject to 0 ≤ w⁺ < 1, 0 ≤ w⁻ < 1, 0 < w⁺+w⁻ < 1.
	WPlus, WMinus float64

	// Label is L(·), the label similarity function; default
	// strsim.JaroWinkler (the paper's choice after Table 5). For
	// well-definiteness it must return 1 iff its arguments are equal.
	// Construction fills the label-pair table from Threads goroutines, so
	// Label must be safe for concurrent use; the three built-ins are pure.
	// A label pair on which it returns NaN or a value below Theta fails
	// the label constraint (Remark 2), at Theta = 0 too.
	Label strsim.Func

	// Theta is θ of the label-constrained mapping (Remark 2): node pairs
	// with L < θ are excluded from candidates and from mapping operators.
	// 0 disables the constraint (all pairs maintained).
	Theta float64

	// Init overrides the initialization FSim⁰; nil means L(u, v).
	Init InitFunc

	// Epsilon is the convergence threshold. With RelativeEps, iteration
	// stops when every score changed by less than Epsilon·previous value
	// (the experimental setting of §5.1 with Epsilon = 0.01); otherwise it
	// stops when the maximum absolute change drops below Epsilon.
	Epsilon     float64
	RelativeEps bool

	// MaxIters caps the iteration count; 0 derives the bound of
	// Corollary 1 from w⁺+w⁻ and Epsilon (plus slack).
	MaxIters int

	// Threads is the number of worker goroutines; 0 uses GOMAXPROCS.
	// Results are identical at any thread count.
	Threads int

	// UpperBoundOpt enables §3.4's upper-bound pruning; nil disables it.
	UpperBoundOpt *UpperBound

	// DenseCapPairs bounds the all-pairs store and nothing else: when
	// every pair is a candidate (θ = 0 with every label pair eligible,
	// pruning off) a pair universe |V1|·|V2| within it keeps no
	// enumeration, only the two float64 score buffers at u·|V2|+v, and a
	// larger one is enumerated as candidate rows like any other set. Both
	// give bit-identical scores, and CandidateSet.Patch re-picks the store
	// as a maintained graph grows. 0 uses the default of 48M pairs, ~0.8 GB
	// of score buffers. The product is evaluated in 64-bit arithmetic, so
	// pair universes that overflow the platform int take the rows instead
	// of mis-indexing.
	DenseCapPairs int

	// PinDiagonal keeps FSim(u, u) = 1 across iterations (requires
	// g1 == g2 shape); SimRank's fixed self-similarity uses this.
	PinDiagonal bool

	// DeltaMode enables the approximate stability threshold DeltaEps and
	// records Result.ActivePairs. Every run iterates a worklist: after the
	// first round, which recomputes every pair, a pair is recomputed only
	// when some pair (x, y) with x ∈ N(u), y ∈ N(v) that its update reads
	// changed — dirtiness propagates through the reverse candidate
	// adjacency. Outside DeltaMode, and under it with DeltaEps = 0 (the
	// default), a pair counts as changed when its score moved at all, so
	// skipped pairs are precisely those whose Equation 3 inputs are
	// unchanged and every iteration is bit-identical to recomputing every
	// pair. Off by default.
	DeltaMode bool

	// DeltaEps is the stability threshold of DeltaMode: a recomputed pair
	// whose absolute score change is ≤ DeltaEps is treated as stable and
	// does not reactivate its dependents. 0 (the default) propagates every
	// change and preserves the exact fixed-point semantics; small positive
	// values (e.g. 1e-6) trade a bounded score perturbation for a smaller
	// frontier. Must lie in [0, 1); ignored when DeltaMode is off.
	DeltaEps float64

	// Damping mixes each update with the previous score:
	// FSimᵏ ← Damping·FSimᵏ⁻¹ + (1−Damping)·update. Zero (the default)
	// is the paper's plain iteration. The greedy matching heuristic of the
	// dp/bj mapping operators only 1/2-approximates condition C3 of
	// Theorem 1, which can leave a small bounded oscillation instead of
	// strict convergence; damping shrinks the oscillation amplitude
	// without moving fixpoints (score-1 pairs stay at 1, preserving P2).
	// For guaranteed convergence use Operators.ExactMatching instead.
	Damping float64
}

// DefaultOptions returns the experimental defaults of §5.1: w⁺ = w⁻ = 0.4
// (w* = 0.2), Jaro-Winkler labels, relative convergence at 0.01, θ = 0.
func DefaultOptions(variant exact.Variant) Options {
	return Options{
		Variant:     variant,
		WPlus:       0.4,
		WMinus:      0.4,
		Label:       strsim.JaroWinkler,
		Epsilon:     0.01,
		RelativeEps: true,
	}
}

// normalize validates opts and fills defaults.
func (o *Options) normalize() error {
	if o.WPlus < 0 || o.WPlus >= 1 || o.WMinus < 0 || o.WMinus >= 1 {
		return fmt.Errorf("core: weighting factors must be in [0,1): w+=%v w-=%v", o.WPlus, o.WMinus)
	}
	// The paper requires 0 < w⁺+w⁻ < 1; we additionally allow the
	// degenerate w⁺+w⁻ = 0 (FSim = L, converging immediately), which the
	// Fig 4(b) sensitivity sweep reaches at w* = 1.
	if s := o.WPlus + o.WMinus; s >= 1 {
		return fmt.Errorf("core: need w+ + w- < 1, got %v", s)
	}
	if o.Theta < 0 || o.Theta > 1 {
		return fmt.Errorf("core: theta must be in [0,1], got %v", o.Theta)
	}
	if o.Damping < 0 || o.Damping >= 1 {
		return fmt.Errorf("core: damping must be in [0,1), got %v", o.Damping)
	}
	if o.DeltaEps < 0 || o.DeltaEps >= 1 {
		return fmt.Errorf("core: delta epsilon must be in [0,1), got %v", o.DeltaEps)
	}
	if o.Label == nil {
		o.Label = strsim.JaroWinkler
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
		o.RelativeEps = true
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.DenseCapPairs <= 0 {
		o.DenseCapPairs = 48_000_000
	}
	if o.MaxIters <= 0 {
		// Damping changes the contraction factor of each step to
		// damping + (1−damping)(w⁺+w⁻); Corollary 1 generalizes directly.
		w := o.Damping + (1-o.Damping)*(o.WPlus+o.WMinus)
		o.MaxIters = corollaryBound(w, o.Epsilon) + 10
	}
	if o.Operators == nil {
		ops := OperatorsFor(o.Variant)
		o.Operators = &ops
	}
	if ub := o.UpperBoundOpt; ub != nil {
		if ub.Alpha < 0 || ub.Alpha >= 1 {
			return fmt.Errorf("core: upper-bound alpha must be in [0,1), got %v", ub.Alpha)
		}
		if ub.Beta < 0 || ub.Beta > 1 {
			return fmt.Errorf("core: upper-bound beta must be in [0,1], got %v", ub.Beta)
		}
	}
	return nil
}

// WithPinnedIterations returns o with an exact iteration budget: the
// epsilon criterion is made unreachable, so every computation runs
// precisely iters rounds. Pinning is the cross-process reproducibility
// contract shared by the serving layer, `fsim snapshot` and the
// benchmarks: two computations over the same graph and pinned options
// produce bit-identical scores, which is what lets a warm-started server
// answer byte-identically to the process that wrote the snapshot.
func (o Options) WithPinnedIterations(iters int) Options {
	o.Epsilon = 1e-300
	o.RelativeEps = false
	o.MaxIters = iters
	return o
}

// corollaryBound is Corollary 1: convergence within ⌈log_{w⁺+w⁻} ε⌉
// iterations (for absolute ε; used as a safety cap in relative mode too).
func corollaryBound(w, eps float64) int {
	if w <= 0 {
		return 2 // degenerate w⁺+w⁻ = 0: FSim = L after one round
	}
	if w >= 1 || eps <= 0 || eps >= 1 {
		return 64
	}
	// log_w(eps) = ln(eps)/ln(w); both logs negative, ratio positive.
	n := int(math.Ceil(math.Log(eps) / math.Log(w)))
	if n < 1 {
		n = 1
	}
	return n
}
