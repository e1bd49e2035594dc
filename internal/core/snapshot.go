package core

import (
	"fmt"
	"slices"

	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// CandidateData is the raw serializable form of a CandidateSet: the
// enumerated candidate map, the retained §3.4 bounds (those of the pruned
// pairs some candidate reads), and the store-shape discriminators.
// Everything else a CandidateSet holds (graphs, normalized options, the
// label-similarity table, the row offsets) is either supplied separately
// or re-derived by NewCandidateSetFromData, so the snapshot codec
// persists only what cannot be recomputed cheaply.
//
// The slices returned by Data are shared with the set and must not be
// modified; NewCandidateSetFromData takes ownership of its inputs.
type CandidateData struct {
	// Dense and AllPairs mirror the store-shape flags (Dense: the pair
	// universe fits Options.DenseCapPairs); they are validated against the
	// graphs and options on reconstruction rather than trusted.
	Dense    bool
	AllPairs bool

	// CandPairs and RowOff are the candidate enumeration (nil in the
	// all-pairs case), laid out exactly as build produces them: row-major,
	// ascending v within each row.
	CandPairs []pairbits.Key
	RowOff    []int32

	// PrunedKeys/PrunedBounds list the §3.4 bounds retained for pruned
	// pairs (α > 0 only), key-sorted: Data gives those some candidate
	// reads, and NewCandidateSetFromData accepts any superset of them
	// (data exported before the set kept only those) and drops the rest.
	// PrunedCount is the total number of pruned pairs, which exceeds
	// len(PrunedKeys) when bounds are not kept or some pruned pair is not
	// read.
	PrunedKeys   []pairbits.Key
	PrunedBounds []float64
	PrunedCount  int
}

// Data exposes the set's candidate enumeration and retained bounds for
// serialization. The retained bounds are emitted in row order, which is
// key order, so the output is deterministic.
func (cs *CandidateSet) Data() CandidateData {
	d := CandidateData{
		Dense:       cs.dense,
		AllPairs:    cs.allPairs,
		CandPairs:   cs.candPairs,
		RowOff:      cs.rowOff,
		PrunedCount: cs.prunedCount,
	}
	if len(cs.prunedCol) > 0 {
		d.PrunedKeys = make([]pairbits.Key, 0, len(cs.prunedCol))
		for u := 0; u < cs.n1; u++ {
			for _, v := range cs.prunedCol[cs.prunedOff[u]:cs.prunedOff[u+1]] {
				d.PrunedKeys = append(d.PrunedKeys, pairbits.MakeKey(graph.NodeID(u), v))
			}
		}
		d.PrunedBounds = cs.prunedBound
	}
	return d
}

// labelFunc evaluates Options.Label on the labels of (u, v). The label
// table keeps no value of an ineligible pair, so an error that reports one
// computes it.
func (cs *CandidateSet) labelFunc(u, v graph.NodeID) float64 {
	return cs.opts.Label(cs.g1.LabelName(cs.labels1[u]), cs.g2.LabelName(cs.labels2[v]))
}

// NewCandidateSetFromData reconstructs a CandidateSet from a previously
// exported enumeration, skipping the O(|V1|·|V2|) candidate decisions of
// NewCandidateSet: the label caches and the label table are rebuilt from
// the graphs, the row offsets are re-derived from the pair list, and the
// retained bounds are filed into their row CSR, of which retainRead keeps
// the ones candidates read. The data's structural invariants are
// validated — key ordering, id ranges, row offsets that agree with the
// pair list, store-shape agreement with the options, that every candidate
// is label-eligible, that a retained bound belongs to a label-eligible
// non-candidate, and that every such pair a candidate reads has one — so
// corrupted input yields a descriptive error, never a set whose lookups
// silently disagree with its enumeration.
func NewCandidateSetFromData(g1, g2 *graph.Graph, opts Options, d CandidateData) (*CandidateSet, error) {
	cs, err := newCandidateBase(g1, g2, opts)
	if err != nil {
		return nil, err
	}

	// The shape flags are functions of (graphs, options); compare the
	// recomputed ones instead of trusting the data.
	if cs.dense != d.Dense {
		return nil, fmt.Errorf("core: candidate data store shape (dense=%v) disagrees with |V1|·|V2|=%d·%d vs DenseCapPairs=%d",
			d.Dense, cs.n1, cs.n2, cs.opts.DenseCapPairs)
	}
	if cs.allPairs != d.AllPairs {
		return nil, fmt.Errorf("core: candidate data all-pairs flag %v disagrees with options", d.AllPairs)
	}
	cs.prunedCount = d.PrunedCount
	if cs.allPairs {
		if len(d.CandPairs) != 0 || len(d.RowOff) != 0 || len(d.PrunedKeys) != 0 || d.PrunedCount != 0 {
			return nil, fmt.Errorf("core: all-pairs candidate data carries an enumeration")
		}
		return cs, nil
	}

	for pos, k := range d.CandPairs {
		u, v := k.Split()
		if int(u) < 0 || int(u) >= cs.n1 || int(v) < 0 || int(v) >= cs.n2 {
			return nil, fmt.Errorf("core: candidate pair (%d,%d) at position %d outside the %d×%d universe", u, v, pos, cs.n1, cs.n2)
		}
		// Key order is row-major order with ascending v within a row.
		if pos > 0 && d.CandPairs[pos-1] >= k {
			return nil, fmt.Errorf("core: candidate pairs not strictly ascending at position %d", pos)
		}
		// The operators read only label-eligible pairs, so an ineligible
		// candidate's score would never be read.
		if !cs.Eligible(u, v) {
			return nil, fmt.Errorf("core: candidate pair (%d,%d) fails the label constraint (L=%v < θ=%v)",
				u, v, cs.labelFunc(u, v), cs.opts.Theta)
		}
	}
	cs.candPairs = d.CandPairs
	if err := cs.deriveRowOff(); err != nil {
		return nil, err
	}
	if !slices.Equal(cs.rowOff, d.RowOff) {
		return nil, fmt.Errorf("core: candidate row offsets (%d entries) disagree with the %d-row pair list", len(d.RowOff), cs.n1)
	}

	if len(d.PrunedKeys) != len(d.PrunedBounds) {
		return nil, fmt.Errorf("core: pruned keys/bounds lengths disagree: %d vs %d", len(d.PrunedKeys), len(d.PrunedBounds))
	}
	keepBounds := cs.keepsBounds()
	if !keepBounds && len(d.PrunedKeys) != 0 {
		return nil, fmt.Errorf("core: candidate data retains %d bounds but α = 0 keeps none", len(d.PrunedKeys))
	}
	if d.PrunedCount < len(d.PrunedKeys) {
		return nil, fmt.Errorf("core: pruned count %d below retained bound count %d", d.PrunedCount, len(d.PrunedKeys))
	}
	if !keepBounds {
		return cs, nil
	}
	cs.prunedOff = make([]int32, cs.n1+1)
	cs.prunedCol = make([]graph.NodeID, len(d.PrunedKeys))
	cs.prunedBound = d.PrunedBounds
	for i, k := range d.PrunedKeys {
		u, v := k.Split()
		if int(u) < 0 || int(u) >= cs.n1 || int(v) < 0 || int(v) >= cs.n2 {
			return nil, fmt.Errorf("core: pruned pair (%d,%d) outside the %d×%d universe", u, v, cs.n1, cs.n2)
		}
		if i > 0 && d.PrunedKeys[i-1] >= k {
			return nil, fmt.Errorf("core: pruned keys not strictly ascending at position %d", i)
		}
		if b := d.PrunedBounds[i]; !(b >= 0 && b <= 1) { // NaN fails too
			return nil, fmt.Errorf("core: pruned bound %v of pair (%d,%d) outside [0,1]", b, u, v)
		}
		if cs.Contains(u, v) {
			return nil, fmt.Errorf("core: pair (%d,%d) is both a candidate and a pruned pair with a retained bound", u, v)
		}
		if !cs.Eligible(u, v) {
			return nil, fmt.Errorf("core: pruned pair (%d,%d) fails the label constraint (L=%v < θ=%v), so it cannot hold a bound",
				u, v, cs.labelFunc(u, v), cs.opts.Theta)
		}
		cs.prunedCol[i] = v
		cs.prunedOff[u+1]++
	}
	for u := 0; u < cs.n1; u++ {
		cs.prunedOff[u+1] += cs.prunedOff[u]
	}
	if err := cs.retainRead(true); err != nil {
		return nil, err
	}
	return cs, nil
}
