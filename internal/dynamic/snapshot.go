package dynamic

import (
	"errors"
	"fmt"

	"fsim/internal/core"
	"fsim/internal/graph"
	"fsim/internal/query"
)

// SnapshotState is the complete persistable state of a Maintainer: the
// current graph snapshot, the candidate component, the maintained scores
// and the graph-version counter. It is what the binary snapshot codec
// (internal/snapshot) writes and reads, and what NewFromSnapshot
// reconstructs a Maintainer from without recomputing the fixed point.
type SnapshotState struct {
	Graph      *graph.Graph
	Candidates *core.CandidateSet
	Version    uint64

	// Scores holds one score per candidate pair, at its
	// core.CandidateSet.Position (u·|V|+v when every pair is a candidate);
	// non-candidates resolve to their §3.4 stand-ins through Candidates.
	Scores []float64
}

// ViewSnapshot calls fn with a consistent view of the maintainer's state:
// the read lock is held for the duration, so no Apply can interleave and
// the state fn observes is exactly one graph version. The slices in the
// state are the maintainer's own — fn must treat them as read-only and
// must not retain them past its return.
func (mt *Maintainer) ViewSnapshot(fn func(SnapshotState) error) error {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return fn(SnapshotState{
		Graph:      mt.g,
		Candidates: mt.cs,
		Version:    mt.version.Load(),
		Scores:     mt.store.scores,
	})
}

// NewFromSnapshot reconstructs a Maintainer from a persisted state without
// computing anything: the scores are adopted as-is and the version
// sequence resumes at st.Version, so version-keyed caches and clients
// observe a continuous history across a restart. The score count is
// validated against the candidate component; the scores themselves are
// trusted, exactly like New trusts ComputeOn.
func NewFromSnapshot(st SnapshotState) (*Maintainer, error) {
	if st.Graph == nil || st.Candidates == nil {
		return nil, errors.New("dynamic: snapshot state needs a graph and a candidate component")
	}
	g1, g2 := st.Candidates.Graphs()
	if g1 != st.Graph || g2 != st.Graph {
		return nil, errors.New("dynamic: snapshot candidate component must be built on the snapshot graph against itself")
	}
	opts := st.Candidates.Options()
	if opts.Init != nil {
		return nil, errors.New("dynamic: custom Options.Init is not supported; initial scores must be local to the pair")
	}
	if want := st.Candidates.NumCandidates(); len(st.Scores) != want {
		return nil, fmt.Errorf("dynamic: score store wants %d entries (one per candidate), snapshot has %d", want, len(st.Scores))
	}
	mt := &Maintainer{
		g:     st.Graph,
		opts:  opts,
		cs:    st.Candidates,
		ix:    query.NewFromCandidates(st.Candidates),
		store: scoreStore{scores: st.Scores},
	}
	mt.version.Store(st.Version)
	mt.snap.Store(st.Graph)
	return mt, nil
}
