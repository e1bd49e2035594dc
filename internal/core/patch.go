package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// StandInChange records one §3.4 stand-in constant that changed during a
// Patch: the pair's new stand-in score (α·FSim̄ under the updated bound), or
// 0 when the pair no longer holds one (promoted to a candidate).
type StandInChange struct {
	Key     pairbits.Key
	StandIn float64
}

// PatchDelta reports what one Patch changed, for consumers that maintain
// structures derived from the candidate component (score stores, query
// indexes): candidate pairs that entered or left Hc, stand-in constants
// that changed, and the node-count growth. All lists are key-sorted.
type PatchDelta struct {
	OldN1, OldN2 int
	N1, N2       int
	// Added and Removed are the pairs that entered/left the candidate map.
	Added, Removed []pairbits.Key
	// StandIns lists the pairs whose constant §3.4 stand-in changed and
	// that some candidate of the patched set reads: a pair no candidate
	// reads has no candidate dependent. A pruned pair that no candidate
	// read before the patch is listed with its stand-in whether or not it
	// changed, since its old bound was not retained. Only populated when
	// UpperBoundOpt.Alpha > 0; otherwise there are no stand-ins.
	StandIns []StandInChange
}

// Empty reports whether the patch changed neither membership, stand-ins
// nor node counts.
func (d *PatchDelta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.StandIns) == 0 &&
		d.OldN1 == d.N1 && d.OldN2 == d.N2
}

// Patch updates the candidate component in place for a mutated graph pair,
// re-deciding membership and §3.4 bounds only for the pairs an update can
// affect instead of re-enumerating the full universe. (g1, g2) must extend
// the graphs the set was built on: nodes and labels are append-only, and
// existing nodes keep their labels — exactly what graph.Mutable snapshots
// guarantee. touched1/touched2 must list every pre-existing node of each
// side whose adjacency changed; new nodes are always treated as touched.
//
// Because label similarities of existing pairs cannot change, membership
// and bounds can only shift for pairs with a touched row or column — Eq. 6
// reads only the pair's own neighborhoods — so Patch re-evaluates exactly
// those rows and columns: O((|touched|+new)·(|V1|+|V2|)) candidate
// decisions plus O(|Hc|) structural splicing, versus O(|V1|·|V2|)
// decisions for a rebuild.
//
// Node growth can carry the pair universe past Options.DenseCapPairs, and
// vocabulary growth can add an ineligible label pair; either ends the
// all-pairs store. Patch then re-derives the store shape and enumerates
// the rows: the patched set equals a fresh NewCandidateSet on (g1, g2),
// store shape included, so a maintained graph never needs rebuilding.
//
// Patching invalidates Results previously computed on this set: their
// scores sit at candidate positions (Position), which a patch shifts.
// Consumers that keep a candidate-aligned score vector across patches (the
// dynamic maintainer) carry it over with RemapScores. Concurrent readers
// must be excluded while Patch runs (query.Index.Apply write-locks).
func (cs *CandidateSet) Patch(g1, g2 *graph.Graph, touched1, touched2 []graph.NodeID) (*PatchDelta, error) {
	if g1 == nil || g2 == nil {
		return nil, errors.New("core: nil graph")
	}
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	if n1 < cs.n1 || n2 < cs.n2 {
		return nil, fmt.Errorf("core: patch graphs must extend the originals: |V1| %d->%d, |V2| %d->%d",
			cs.n1, n1, cs.n2, n2)
	}
	if err := checkPinDiagonal(&cs.opts, n1, n2); err != nil {
		return nil, err
	}
	if err := checkExtends(cs.g1, g1); err != nil {
		return nil, err
	}
	if err := checkExtends(cs.g2, g2); err != nil {
		return nil, err
	}

	delta := &PatchDelta{OldN1: cs.n1, OldN2: cs.n2, N1: n1, N2: n2}
	oldN1, oldN2 := cs.n1, cs.n2
	// The pre-patch rows stay readable through the splice, which writes
	// fresh arrays.
	oldAll, oldPairs, oldRowOff := cs.allPairs, cs.candPairs, cs.rowOff
	oldContains := func(u, v graph.NodeID) bool {
		if oldAll {
			return true
		}
		_, ok := slices.BinarySearch(oldPairs[oldRowOff[u]:oldRowOff[u+1]], pairbits.MakeKey(u, v))
		return ok
	}

	// The label table is quadratic in labels only, so it is derived again
	// whenever the vocabulary grew, before anything else changes. Then
	// swap in the mutated graphs and extend the label caches.
	if g1.NumLabels() != cs.g1.NumLabels() || g2.NumLabels() != cs.g2.NumLabels() {
		if err := cs.deriveLabelLayer(g1, g2); err != nil {
			return nil, err
		}
	}
	cs.g1, cs.g2 = g1, g2
	cs.n1, cs.n2 = n1, n2
	cs.labels1 = nodeLabels(cs.labels1, g1, oldN1)
	cs.labels2 = nodeLabels(cs.labels2, g2, oldN2)

	cs.dense, cs.allPairs = storeShape(n1, n2, &cs.opts, cs.allEligible)
	if cs.allPairs {
		// θ = 0 without pruning: every pair, including the new rows and
		// columns, is a candidate by construction — nothing to splice.
		return delta, nil
	}
	if oldAll {
		// The all-pairs store left: the grown universe left the dense cap,
		// or the grown vocabulary added an ineligible label pair (a custom
		// Options.Label that is NaN or negative there). Enumerate the old
		// universe row-major — its label pairs are unchanged, so every
		// pair of it is still a candidate — at the all-pairs slots
		// u·|V2|+v, so RemapScores carries scores over unchanged, and the
		// new rows and columns enter below as Added pairs.
		cs.candPairs = make([]pairbits.Key, 0, oldN1*oldN2)
		for u := 0; u < oldN1; u++ {
			for v := 0; v < oldN2; v++ {
				cs.candPairs = append(cs.candPairs, pairbits.MakeKey(graph.NodeID(u), graph.NodeID(v)))
			}
		}
	}

	// Re-decide membership for every pair with a touched row or column.
	inRow := make([]bool, n1)
	var rows []int
	for _, u := range touched1 {
		if int(u) < n1 && !inRow[u] {
			inRow[u] = true
			rows = append(rows, int(u))
		}
	}
	for u := oldN1; u < n1; u++ {
		if !inRow[u] {
			inRow[u] = true
			rows = append(rows, u)
		}
	}
	inCol := make([]bool, n2)
	var cols []int
	for _, v := range touched2 {
		if int(v) < n2 && !inCol[v] {
			inCol[v] = true
			cols = append(cols, int(v))
		}
	}
	for v := oldN2; v < n2; v++ {
		if !inCol[v] {
			inCol[v] = true
			cols = append(cols, v)
		}
	}

	ub := cs.opts.UpperBoundOpt
	keepBounds := cs.keepsBounds()
	var pruned []touchedPruned
	prunedDelta := 0
	var masks rowMasks // of the row being re-decided, built after the swap

	eval := func(u, v graph.NodeID) {
		k := pairbits.MakeKey(u, v)
		exists := int(u) < oldN1 && int(v) < oldN2
		wasCand := exists && oldContains(u, v)
		ok, bound, isPruned := cs.candidate(&masks, u, v)
		if ok != wasCand {
			if ok {
				delta.Added = append(delta.Added, k)
			} else {
				delta.Removed = append(delta.Removed, k)
			}
		}
		// A pre-existing non-candidate that passes the (unchanged) label
		// constraint can only have been removed by §3.4 pruning.
		wasPruned := exists && !wasCand && ub != nil && cs.Eligible(u, v)
		if isPruned && !wasPruned {
			prunedDelta++
		} else if !isPruned && wasPruned {
			prunedDelta--
		}
		if keepBounds && (isPruned || wasPruned) {
			p := touchedPruned{k: k, bound: bound, pruned: isPruned}
			if wasPruned {
				// Rows keep their old ranges until the splice, so a
				// pre-patch bound is still found where it was.
				if i, ok := cs.prunedPos(u, v); ok {
					p.retained, p.oldBound = true, cs.prunedBound[i]
				}
			}
			pruned = append(pruned, p)
		}
	}

	// Pairs are re-decided row by row, so each row's eligibility masks are
	// built at most once; every list eval appends to is sorted below.
	sort.Ints(rows)
	sort.Ints(cols)
	for _, u := range rows {
		for v := 0; v < n2; v++ {
			eval(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := 0; u < n1 && len(cols) > 0; u++ {
		if inRow[u] {
			continue
		}
		for _, v := range cols {
			eval(graph.NodeID(u), graph.NodeID(v))
		}
	}

	sortKeys(delta.Added)
	sortKeys(delta.Removed)
	cs.prunedCount += prunedDelta

	// Splice the sorted candidate list into a fresh array and re-derive
	// the row offsets in one linear pass. Layout work is O(|Hc|); no
	// candidate decision is repeated. An offset error (the map outgrew
	// maxCandidates) leaves the set unusable.
	if oldAll || len(delta.Added) > 0 || len(delta.Removed) > 0 || n1 != oldN1 || n2 != oldN2 {
		merged := make([]pairbits.Key, 0, len(cs.candPairs)+len(delta.Added)-len(delta.Removed))
		ai, ri := 0, 0
		for _, k := range cs.candPairs {
			for ai < len(delta.Added) && delta.Added[ai] < k {
				merged = append(merged, delta.Added[ai])
				ai++
			}
			if ri < len(delta.Removed) && delta.Removed[ri] == k {
				ri++
				continue
			}
			merged = append(merged, k)
		}
		merged = append(merged, delta.Added[ai:]...)
		cs.candPairs = merged
		if err := cs.deriveRowOff(); err != nil {
			return nil, err
		}
	}

	if keepBounds {
		changes := cs.retainedChanges(delta, pruned, inRow, inCol, &masks)
		if len(changes) > 0 || n1 != oldN1 {
			cs.splicePruned(changes, oldN1)
		}
	}
	return delta, nil
}

// touchedPruned is a pair with a touched row or column that is pruned
// after a Patch or was before it: its bound (0 unless pruned), and its
// retained bound before the patch, if it had one.
type touchedPruned struct {
	k                pairbits.Key
	bound, oldBound  float64
	pruned, retained bool
}

// retainedChanges settles, after a Patch has re-decided membership, which
// pairs the bound CSR retains: the pruned pairs that some candidate of the
// patched set reads. That can change only for a pair with a touched row or
// column (its status, bound and readers are new; pruned lists those that
// are or were pruned) or for one that an Added or Removed candidate reads.
// Any other pair keeps its readers, so it keeps its status and its bound:
// a reader whose neighbourhood changed reaches it only through a touched
// neighbour, which puts the pair in a touched row or column. The CSR still
// holds the pre-patch bounds. It returns the key-sorted changes for
// splicePruned and records in delta.StandIns the changed stand-ins that a
// candidate reads. masks serves the rows of newly read pairs' bounds.
func (cs *CandidateSet) retainedChanges(delta *PatchDelta, pruned []touchedPruned, inRow, inCol []bool, masks *rowMasks) []prunedChange {
	alpha := cs.opts.UpperBoundOpt.Alpha
	var changes []prunedChange
	var js JoinScratch
	for _, p := range pruned {
		x, y := p.k.Split()
		read := cs.isRead(&js, x, y)
		// fresh: the pair is pruned, and no bound or another was retained.
		fresh := p.pruned && (!p.retained || p.oldBound != p.bound)
		switch keep := p.pruned && read; {
		case keep && fresh:
			changes = append(changes, prunedChange{p.k, p.bound, true})
		case !keep && p.retained:
			changes = append(changes, prunedChange{p.k, 0, false})
		}
		if read && (fresh || !p.pruned) {
			delta.StandIns = append(delta.StandIns, StandInChange{p.k, alpha * p.bound})
		}
	}

	var reads []pairbits.Key
	collect := func(k pairbits.Key) {
		u, v := k.Split()
		cs.forEachRead(u, v, func(x, y graph.NodeID) {
			if !inRow[x] && !inCol[y] {
				reads = append(reads, pairbits.MakeKey(x, y))
			}
		})
	}
	for _, k := range delta.Added {
		collect(k)
	}
	for _, k := range delta.Removed {
		collect(k)
	}
	sortKeys(reads)
	for i, k := range reads {
		if i > 0 && reads[i-1] == k {
			continue
		}
		x, y := k.Split()
		_, retained := cs.prunedPos(x, y)
		switch keep := cs.Eligible(x, y) && !cs.Contains(x, y) && cs.isRead(&js, x, y); {
		case keep && !retained:
			changes = append(changes, prunedChange{k, cs.upperBound(masks, x, y, cs.LabelSim(x, y)), true})
		case !keep && retained:
			changes = append(changes, prunedChange{k, 0, false})
		}
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].k < changes[j].k })
	sort.Slice(delta.StandIns, func(i, j int) bool { return delta.StandIns[i].Key < delta.StandIns[j].Key })
	return changes
}

// prunedChange is one pruned pair whose retained bound a Patch sets (keep)
// or drops.
type prunedChange struct {
	k     pairbits.Key
	bound float64
	keep  bool
}

// splicePruned merges key-sorted bound changes into the retained-bound CSR
// in one walk over its rows, extending it from oldN1 to cs.n1 rows. The
// new slices are fresh, so a CandidateData exported earlier stays intact.
func (cs *CandidateSet) splicePruned(changes []prunedChange, oldN1 int) {
	n := len(cs.prunedCol) + len(changes)
	col := make([]graph.NodeID, 0, n)
	bound := make([]float64, 0, n)
	off := make([]int32, cs.n1+1)
	ci := 0
	// emit applies the changes of row u that sort before key limit.
	emit := func(limit pairbits.Key) {
		for ; ci < len(changes) && changes[ci].k < limit; ci++ {
			if changes[ci].keep {
				_, v := changes[ci].k.Split()
				col = append(col, v)
				bound = append(bound, changes[ci].bound)
			}
		}
	}
	for u := 0; u < cs.n1; u++ {
		off[u] = int32(len(col))
		if u < oldN1 {
			for i := cs.prunedOff[u]; i < cs.prunedOff[u+1]; i++ {
				k := pairbits.MakeKey(graph.NodeID(u), cs.prunedCol[i])
				emit(k)
				if ci < len(changes) && changes[ci].k == k {
					if changes[ci].keep {
						col = append(col, cs.prunedCol[i])
						bound = append(bound, changes[ci].bound)
					}
					ci++
					continue
				}
				col = append(col, cs.prunedCol[i])
				bound = append(bound, cs.prunedBound[i])
			}
		}
		emit(pairbits.MakeKey(graph.NodeID(u+1), 0))
	}
	off[cs.n1] = int32(len(col))
	cs.prunedOff, cs.prunedCol, cs.prunedBound = off, col, bound
}

// RemapScores carries a candidate-aligned score vector (one score per
// candidate, at its Position) across the Patch that returned d: surviving
// candidates keep their scores at their new positions, removed ones are
// dropped, and added ones start at 0 — callers recompute them before
// reading. It is one merge walk over the patched candidate list and the
// key-sorted Added/Removed lists; old is returned unchanged when the
// positions did not move.
func (cs *CandidateSet) RemapScores(old []float64, d *PatchDelta) []float64 {
	if cs.allPairs {
		// Every pair is a candidate at u·|V2|+v: only node growth moves
		// positions, by re-striding the rows.
		if d.N2 == d.OldN2 && d.N1 == d.OldN1 {
			return old
		}
		out := make([]float64, d.N1*d.N2)
		for u := 0; u < d.OldN1; u++ {
			copy(out[u*d.N2:u*d.N2+d.OldN2], old[u*d.OldN2:(u+1)*d.OldN2])
		}
		return out
	}
	if len(d.Added) == 0 && len(d.Removed) == 0 {
		return old // node growth alone appends empty rows
	}
	out := make([]float64, len(cs.candPairs))
	i, ai, ri := 0, 0, 0 // positions in old, Added, Removed
	for pos, k := range cs.candPairs {
		for ri < len(d.Removed) && d.Removed[ri] < k {
			ri++ // a removed pair held the next old position
			i++
		}
		if ai < len(d.Added) && d.Added[ai] == k {
			ai++
			continue
		}
		out[pos] = old[i]
		i++
	}
	return out
}

// checkExtends verifies the append-only contract between an original graph
// and its mutated successor: existing nodes keep their labels and the
// label vocabulary grows by appending.
func checkExtends(old, cur *graph.Graph) error {
	if old == cur {
		return nil
	}
	if cur.NumLabels() < old.NumLabels() {
		return fmt.Errorf("core: patch shrank the label vocabulary: %d -> %d", old.NumLabels(), cur.NumLabels())
	}
	for l := 0; l < old.NumLabels(); l++ {
		if old.LabelName(graph.Label(l)) != cur.LabelName(graph.Label(l)) {
			return fmt.Errorf("core: patch changed label %d: %q -> %q",
				l, old.LabelName(graph.Label(l)), cur.LabelName(graph.Label(l)))
		}
	}
	for u := 0; u < old.NumNodes(); u++ {
		if old.Label(graph.NodeID(u)) != cur.Label(graph.NodeID(u)) {
			return fmt.Errorf("core: patch relabeled node %d", u)
		}
	}
	return nil
}

func sortKeys(ks []pairbits.Key) {
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
}
