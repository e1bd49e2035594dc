package dynamic

import (
	"fmt"
	"math"
	"testing"

	"fsim/internal/core"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// TestScoreStoreCompactAndExact pins the score store's two contracts
// through a maintainer's whole life — New, an incremental Apply, a
// node-adding Apply, a saturated (full-fallback) Apply, and a restore via
// NewFromSnapshot: the store holds exactly one score per candidate pair,
// and Maintainer.Score over the full pair universe equals a fresh
// core.Compute bit for bit (pinned iterations, dense candidate store).
// That covers candidate scores, §3.4 stand-ins and ineligible zeros.
func TestScoreStoreCompactAndExact(t *testing.T) {
	// Disjoint 8-node chains with positional labels: an update inside one
	// chain reaches only pairs involving that chain, so single-edge updates
	// stay under the locality threshold and replay incrementally.
	const chains, length = 12, 8
	b := graph.NewBuilder()
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			id := b.AddNode(fmt.Sprintf("p%d", i))
			if i > 0 {
				b.MustAddEdge(id-1, id)
			}
			if i > 1 && c%2 == 0 {
				b.MustAddEdge(id, id-2)
			}
		}
	}
	g := b.Build()
	n := graph.NodeID(g.NumNodes())

	configs := map[string]func(o *core.Options){
		"all-pairs": func(o *core.Options) {},
		"theta":     func(o *core.Options) { o.Theta = 0.8 },
		"theta+ub": func(o *core.Options) {
			o.Theta = 0.8
			o.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.6}
		},
	}
	for name, shape := range configs {
		t.Run(name, func(t *testing.T) {
			opts := core.DefaultOptions(exact.BJ)
			opts.Threads = 1
			opts.Epsilon = 1e-300
			opts.RelativeEps = false
			opts.MaxIters = 10
			shape(&opts)

			check := func(step string, mt *Maintainer) {
				t.Helper()
				if got, want := len(mt.store.scores), mt.cs.NumCandidates(); got != want {
					t.Fatalf("%s: store holds %d scores, want one per candidate (%d)", step, got, want)
				}
				g := mt.Graph()
				fresh, err := core.Compute(g, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				nn := g.NumNodes()
				standIns, zeros := 0, 0
				for u := 0; u < nn; u++ {
					for v := 0; v < nn; v++ {
						uu, vv := graph.NodeID(u), graph.NodeID(v)
						got, err := mt.Score(uu, vv)
						if err != nil {
							t.Fatal(err)
						}
						want := fresh.Score(uu, vv)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: Score(%d,%d) = %v, fresh Compute %v", step, u, v, got, want)
						}
						if !fresh.Contains(uu, vv) {
							if want > 0 {
								standIns++
							} else {
								zeros++
							}
						}
					}
				}
				if opts.UpperBoundOpt != nil && standIns == 0 {
					t.Fatalf("%s: no §3.4 stand-in was compared", step)
				}
				if opts.Theta > 0 && zeros == 0 {
					t.Fatalf("%s: no ineligible pair was compared", step)
				}
			}

			mt, err := New(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			check("New", mt)

			st, err := mt.Apply([]graph.Change{{Op: graph.OpRemoveEdge, U: 0, V: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if st.Full {
				t.Fatalf("single-edge update fell back to a full recompute: %+v", st)
			}
			check("incremental Apply", mt)

			st, err = mt.Apply([]graph.Change{
				{Op: graph.OpAddNode, Label: "p3"},
				{Op: graph.OpAddEdge, U: n, V: 4},
				{Op: graph.OpAddEdge, U: 2, V: n},
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Full {
				t.Fatalf("node-adding update fell back to a full recompute: %+v", st)
			}
			check("node-adding Apply", mt)

			var bridge []graph.Change
			for c := 0; c+1 < chains; c++ {
				bridge = append(bridge, graph.Change{Op: graph.OpAddEdge,
					U: graph.NodeID(c*length + length - 1), V: graph.NodeID((c + 1) * length)})
			}
			if st, err = mt.Apply(bridge); err != nil {
				t.Fatal(err)
			}
			if !st.Full {
				t.Fatalf("bridging every chain did not saturate the cone: %+v", st)
			}
			check("saturated Apply", mt)

			var restored *Maintainer
			if err := mt.ViewSnapshot(func(s SnapshotState) error {
				cs, err := core.NewCandidateSetFromData(s.Graph, s.Graph, s.Candidates.Options(), s.Candidates.Data())
				if err != nil {
					return err
				}
				s.Candidates = cs
				s.Scores = append([]float64(nil), s.Scores...)
				restored, err = NewFromSnapshot(s)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			check("NewFromSnapshot", restored)
		})
	}
}
