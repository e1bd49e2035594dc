package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/strsim"
)

// CandidateSet is the immutable candidate component shared by the batch
// engine (Compute) and the single-source query subsystem (internal/query):
// the candidate map Hc of Algorithm 1's Initializing step, the cached
// label-similarity table, and the §3.4 upper bounds of pruned pairs.
//
// Two stores implement the membership structure:
//
//   - dense: a candidate bitmap over the full |V1|×|V2| pair universe (or
//     nothing at all when θ = 0 and pruning is off — every pair is a
//     candidate).
//   - sparse: a hash map keyed by pair (the literal Hc of Algorithm 1),
//     used when the pair universe exceeds Options.DenseCapPairs.
//
// A CandidateSet is read-only after construction and therefore safe to
// share between any number of concurrent readers.
type CandidateSet struct {
	g1, g2 *graph.Graph
	opts   Options // normalized
	ops    *Operators
	table  *strsim.Table
	n1, n2 int

	labels1, labels2 []graph.Label

	dense bool
	// allPairs marks the fully-dense case (θ = 0, no pruning): every pair
	// is a candidate and the loops iterate rows directly.
	allPairs bool
	// Candidate enumeration (both stores; candPairs/rowOff are nil in the
	// allPairs case).
	candPairs []pairbits.Key
	candBits  pairbits.Bitset // dense only; nil = all pairs
	rowOff    []int32
	index     map[pairbits.Key]int32 // sparse only

	// Eq. 6 bounds of pruned pairs, retained only when α > 0. The sparse
	// store keeps a map — the engine's lookup consults it on every missed
	// pair, a hot path — while the dense store keeps a key-sorted slice
	// (pruned pairs can be most of a dense universe, and the batch engine
	// only replays them once into its buffers).
	prunedUB   map[pairbits.Key]float64 // sparse only
	prunedList []prunedPair             // dense only

	prunedCount int
}

// prunedPair records one pruned pair's Eq. 6 bound in the dense store.
type prunedPair struct {
	k     pairbits.Key
	bound float64
}

// NewCandidateSet validates (g1, g2, opts), normalizes the options and
// enumerates the candidate map. g1 and g2 may be the same graph
// (self-similarity, as in the paper's single-graph experiments).
func NewCandidateSet(g1, g2 *graph.Graph, opts Options) (*CandidateSet, error) {
	if g1 == nil || g2 == nil {
		return nil, errors.New("core: nil graph")
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if opts.PinDiagonal && g1.NumNodes() != g2.NumNodes() {
		return nil, fmt.Errorf("core: PinDiagonal needs equally sized graphs, got |V1|=%d |V2|=%d",
			g1.NumNodes(), g2.NumNodes())
	}
	cs := &CandidateSet{
		g1: g1, g2: g2,
		opts: opts,
		ops:  opts.Operators,
		n1:   g1.NumNodes(), n2: g2.NumNodes(),
	}
	cs.table = strsim.NewTable(opts.Label, g1.LabelNames(), g2.LabelNames())
	cs.labels1 = make([]graph.Label, cs.n1)
	for u := 0; u < cs.n1; u++ {
		cs.labels1[u] = g1.Label(graph.NodeID(u))
	}
	cs.labels2 = make([]graph.Label, cs.n2)
	for v := 0; v < cs.n2; v++ {
		cs.labels2[v] = g2.Label(graph.NodeID(v))
	}
	cs.dense = densePairs(cs.n1, cs.n2, opts.DenseCapPairs)
	if err := cs.build(); err != nil {
		return nil, err
	}
	return cs, nil
}

// densePairs decides the dense store: the pair universe must fit the cap
// AND the platform int, both checked in 64-bit arithmetic. On 32-bit
// builds n1·n2 computed in int silently wraps for graphs beyond ~46k×46k
// nodes — a wrapped (possibly negative) product would pass the cap check
// and every u·n2+v slot index after it would mis-address the buffers, so
// the product is never formed in int unless this predicate holds.
func densePairs(n1, n2, capPairs int) bool {
	pairs := int64(n1) * int64(n2)
	return pairs <= int64(capPairs) && pairs <= int64(maxInt)
}

// maxInt is the platform's largest int (untyped, usable in int64 compares).
const maxInt = int(^uint(0) >> 1)

// maxCandidates bounds the candidate enumeration: row offsets and the
// sparse index store positions as int32, so a larger map would silently
// wrap. Graphs that reach it need a higher Theta or upper-bound pruning.
const maxCandidates = math.MaxInt32

// build enumerates Hc (Algorithm 1's Initializing step): pairs passing the
// label constraint (L ≥ θ) and, when upper-bound updating is on, pairs
// whose Eq. 6 bound exceeds β.
//
// With θ > 0 the enumeration is label-blocked: only pairs whose label pair
// passes the constraint are probed, via per-label node lists and the
// |Σ1|×|Σ2| similarity table, making construction O(|Σ1|·|Σ2| + eligible
// pairs) instead of O(|V1|·|V2|) — the difference between seconds and
// hours on the 10^5–10^6-edge graphs cmd/fsimgen generates. Both paths
// funnel every probed pair through decide, so the candidate decisions are
// identical by construction.
func (cs *CandidateSet) build() error {
	cs.allPairs = cs.dense && cs.opts.Theta == 0 && cs.opts.UpperBoundOpt == nil
	if cs.allPairs {
		return nil // every pair is a candidate
	}
	if cs.dense {
		cs.candBits = pairbits.NewBitset(cs.n1 * cs.n2)
	} else {
		cs.index = make(map[pairbits.Key]int32)
	}
	keepBounds := false
	if ub := cs.opts.UpperBoundOpt; ub != nil && ub.Alpha > 0 {
		keepBounds = true
		if !cs.dense {
			cs.prunedUB = make(map[pairbits.Key]float64)
		}
	}
	var eligLabels [][]int32      // per g1 label, the g2 labels with L ≥ θ
	var byLabel2 [][]graph.NodeID // per g2 label, its nodes ascending
	var rowScratch []graph.NodeID // per-row eligible columns, reused
	if cs.opts.Theta > 0 {
		eligLabels, byLabel2 = cs.labelBlocks()
	}
	cs.rowOff = make([]int32, cs.n1+1)
	for u := 0; u < cs.n1; u++ {
		cs.rowOff[u] = int32(len(cs.candPairs))
		if eligLabels != nil {
			rowScratch = rowScratch[:0]
			for _, l2 := range eligLabels[cs.labels1[u]] {
				rowScratch = append(rowScratch, byLabel2[l2]...)
			}
			// Enumeration order must be v-ascending within the row (the
			// rowOff contract, and what keeps candPairs/prunedList
			// key-sorted); the label blocks arrive out of order.
			slices.Sort(rowScratch)
			for _, vn := range rowScratch {
				cs.decide(graph.NodeID(u), vn, keepBounds)
			}
		} else {
			for v := 0; v < cs.n2; v++ {
				cs.decide(graph.NodeID(u), graph.NodeID(v), keepBounds)
			}
		}
		if len(cs.candPairs) > maxCandidates {
			return fmt.Errorf("core: candidate map exceeds %d pairs at row %d of %d (|V1|·|V2|=%d·%d); raise Theta or enable upper-bound pruning",
				maxCandidates, u, cs.n1, cs.n1, cs.n2)
		}
	}
	cs.rowOff[cs.n1] = int32(len(cs.candPairs))
	return nil
}

// decide runs one pair through the candidate test and files it into the
// store (candidate map, or pruned list/map when §3.4 rejected it). Callers
// must present pairs in (u, v)-ascending order.
func (cs *CandidateSet) decide(un, vn graph.NodeID, keepBounds bool) {
	ok, bound, pruned := cs.candidate(un, vn)
	if !ok {
		if pruned {
			cs.prunedCount++
			if keepBounds {
				if cs.dense {
					// Enumeration order is (u, v) ascending, so the slice
					// stays key-sorted for StandIn's binary search.
					cs.prunedList = append(cs.prunedList, prunedPair{pairbits.MakeKey(un, vn), bound})
				} else {
					cs.prunedUB[pairbits.MakeKey(un, vn)] = bound
				}
			}
		}
		return
	}
	k := pairbits.MakeKey(un, vn)
	if cs.dense {
		cs.candBits.Set(int(un)*cs.n2 + int(vn))
	} else {
		cs.index[k] = int32(len(cs.candPairs))
	}
	cs.candPairs = append(cs.candPairs, k)
}

// labelBlocks precomputes the label-constraint structure of the θ > 0
// enumeration: for every g1 label the g2 labels it may pair with, and for
// every g2 label its nodes in ascending id order.
func (cs *CandidateSet) labelBlocks() (eligLabels [][]int32, byLabel2 [][]graph.NodeID) {
	nl1 := len(cs.g1.LabelNames())
	nl2 := len(cs.g2.LabelNames())
	byLabel2 = make([][]graph.NodeID, nl2)
	for v := 0; v < cs.n2; v++ {
		l := cs.labels2[v]
		byLabel2[l] = append(byLabel2[l], graph.NodeID(v))
	}
	eligLabels = make([][]int32, nl1)
	for l1 := 0; l1 < nl1; l1++ {
		for l2 := 0; l2 < nl2; l2++ {
			if cs.table.Sim(l1, l2) >= cs.opts.Theta {
				eligLabels[l1] = append(eligLabels[l1], int32(l2))
			}
		}
	}
	return eligLabels, byLabel2
}

// candidate decides membership in Hc and (with ub on) returns the Eq. 6
// bound of rejected-but-eligible pairs.
func (cs *CandidateSet) candidate(u, v graph.NodeID) (ok bool, bound float64, pruned bool) {
	ls := cs.table.Sim(int(cs.labels1[u]), int(cs.labels2[v]))
	if ls < cs.opts.Theta {
		return false, 0, false
	}
	if ub := cs.opts.UpperBoundOpt; ub != nil {
		b := cs.upperBound(u, v, ls)
		if b <= ub.Beta {
			return false, b, true
		}
	}
	return true, 0, false
}

// LabelSim returns the cached L(ℓ1(u), ℓ2(v)).
func (cs *CandidateSet) LabelSim(u, v graph.NodeID) float64 {
	return cs.table.Sim(int(cs.labels1[u]), int(cs.labels2[v]))
}

// eligible implements the label constraint of Remark 2.
func (cs *CandidateSet) eligible(x, y graph.NodeID) bool {
	return cs.table.Sim(int(cs.labels1[x]), int(cs.labels2[y])) >= cs.opts.Theta
}

// Graphs returns the two input graphs.
func (cs *CandidateSet) Graphs() (*graph.Graph, *graph.Graph) { return cs.g1, cs.g2 }

// Options returns the normalized options the set was built with.
func (cs *CandidateSet) Options() Options { return cs.opts }

// NumCandidates is |Hc|, the number of maintained pairs.
func (cs *CandidateSet) NumCandidates() int {
	if cs.allPairs {
		return cs.n1 * cs.n2
	}
	return len(cs.candPairs)
}

// PrunedCount is the number of label-eligible pairs removed by upper-bound
// pruning.
func (cs *CandidateSet) PrunedCount() int { return cs.prunedCount }

// Contains reports whether the pair (u, v) is maintained in Hc.
func (cs *CandidateSet) Contains(u, v graph.NodeID) bool {
	if cs.allPairs {
		return true
	}
	if cs.dense {
		return cs.candBits.Get(int(u)*cs.n2 + int(v))
	}
	_, ok := cs.index[pairbits.MakeKey(u, v)]
	return ok
}

// StandIn returns the constant score a non-candidate pair contributes to
// Equation 3 (§3.4): α·FSim̄ when upper-bound pruning retained the bound, 0
// otherwise. Candidate pairs have no stand-in; callers must check Contains.
func (cs *CandidateSet) StandIn(u, v graph.NodeID) float64 {
	if cs.prunedUB != nil {
		if b, ok := cs.prunedUB[pairbits.MakeKey(u, v)]; ok {
			return cs.opts.UpperBoundOpt.Alpha * b
		}
	}
	if cs.prunedList != nil {
		k := pairbits.MakeKey(u, v)
		i := sort.Search(len(cs.prunedList), func(i int) bool { return cs.prunedList[i].k >= k })
		if i < len(cs.prunedList) && cs.prunedList[i].k == k {
			return cs.opts.UpperBoundOpt.Alpha * cs.prunedList[i].bound
		}
	}
	return 0
}

// InitScore returns FSim⁰(u, v) for a candidate pair: Options.Init when
// set, else the label similarity, with the PinDiagonal override applied.
func (cs *CandidateSet) InitScore(u, v graph.NodeID) float64 {
	if cs.opts.PinDiagonal && u == v {
		return 1
	}
	ls := cs.LabelSim(u, v)
	if cs.opts.Init != nil {
		return cs.opts.Init(cs.g1, cs.g2, u, v, ls)
	}
	return ls
}

// Bound evaluates the Eq. 6 upper bound FSim̄(u, v) ≥ FSimχ(u, v). It is
// valid for every pair, candidate or not.
func (cs *CandidateSet) Bound(u, v graph.NodeID) float64 {
	return cs.upperBound(u, v, cs.LabelSim(u, v))
}

// ForEachCandidate calls fn for every candidate v of row u, in ascending v
// order.
func (cs *CandidateSet) ForEachCandidate(u graph.NodeID, fn func(v graph.NodeID)) {
	if cs.allPairs {
		for v := 0; v < cs.n2; v++ {
			fn(graph.NodeID(v))
		}
		return
	}
	for pos := cs.rowOff[u]; pos < cs.rowOff[u+1]; pos++ {
		_, v := cs.candPairs[pos].Split()
		fn(v)
	}
}

// ForEachPruned calls fn for every pruned pair that retained a §3.4
// stand-in (α > 0), in unspecified order.
func (cs *CandidateSet) ForEachPruned(fn func(u, v graph.NodeID, standIn float64)) {
	alpha := 0.0
	if ub := cs.opts.UpperBoundOpt; ub != nil {
		alpha = ub.Alpha
	}
	for k, b := range cs.prunedUB {
		u, v := k.Split()
		fn(u, v, alpha*b)
	}
	for _, p := range cs.prunedList {
		u, v := p.k.Split()
		fn(u, v, alpha*p.bound)
	}
}

// ForEachRead enumerates the pairs whose previous-iteration scores the
// Equation 3 update of (u, v) reads: the out-neighbor cross product under
// w⁺ and the in-neighbor cross product under w⁻ (the forward direction of
// the dependency adjacency; ForEachDependent is its reverse).
func (cs *CandidateSet) ForEachRead(u, v graph.NodeID, fn func(x, y graph.NodeID)) {
	if cs.opts.WPlus > 0 {
		for _, x := range cs.g1.Out(u) {
			for _, y := range cs.g2.Out(v) {
				fn(x, y)
			}
		}
	}
	if cs.opts.WMinus > 0 {
		for _, x := range cs.g1.In(u) {
			for _, y := range cs.g2.In(v) {
				fn(x, y)
			}
		}
	}
}

// ForEachDependent enumerates the pairs whose Equation 3 update reads
// FSim(x, y) — the reverse candidate adjacency driving worklist
// propagation.
func (cs *CandidateSet) ForEachDependent(x, y graph.NodeID, fn func(u, v graph.NodeID)) {
	forEachDependent(cs.g1, cs.g2, x, y, cs.opts.WPlus, cs.opts.WMinus, fn)
}

// updatePair evaluates Equation 3 for one pair.
func (cs *CandidateSet) updatePair(u, v graph.NodeID, eligible func(x, y graph.NodeID) bool, lookup func(x, y graph.NodeID) float64, scratch *opScratch) float64 {
	if cs.opts.PinDiagonal && u == v {
		return 1
	}
	o := &cs.opts
	s := (1 - o.WPlus - o.WMinus) * cs.LabelSim(u, v)
	if o.WPlus > 0 {
		s += o.WPlus * cs.ops.neighborScore(cs.g1.Out(u), cs.g2.Out(v), eligible, lookup, scratch)
	}
	if o.WMinus > 0 {
		s += o.WMinus * cs.ops.neighborScore(cs.g1.In(u), cs.g2.In(v), eligible, lookup, scratch)
	}
	return s
}
