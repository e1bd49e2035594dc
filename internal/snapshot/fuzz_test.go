package snapshot

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// fuzzSeedSnapshots builds small valid snapshots in the current format
// version covering the wire format's branches: all-pairs, dense and sparse
// candidate stores, retained §3.4 bounds, and a non-zero graph version.
func fuzzSeedSnapshots(f *testing.F) [][]byte {
	f.Helper()
	b := graph.NewBuilder()
	p := b.AddNode("person")
	q := b.AddNode("person")
	r := b.AddNode("post")
	b.MustAddEdge(p, r)
	b.MustAddEdge(q, r)
	b.MustAddEdge(r, p)
	g := b.Build()

	var out [][]byte
	for i, mk := range []func() core.Options{
		func() core.Options { return core.DefaultOptions(exact.BJ) }, // all-pairs dense
		func() core.Options {
			o := core.DefaultOptions(exact.S)
			o.Theta = 0.6
			o.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.5}
			return o // dense with retained bounds
		},
		func() core.Options {
			o := core.DefaultOptions(exact.B)
			o.DenseCapPairs = 1
			o.Theta = 0.6
			return o // sparse store
		},
	} {
		opts := mk()
		opts.Threads = 1
		opts.Epsilon = 1e-300
		opts.RelativeEps = false
		opts.MaxIters = 8
		mt, err := dynamic.New(g, opts)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		if _, err := mt.Apply([]graph.Change{{Op: graph.OpAddEdge, U: p, V: q}}); err != nil {
			f.Fatalf("seed %d: Apply: %v", i, err)
		}
		var buf bytes.Buffer
		if err := Write(mt, &buf); err != nil {
			f.Fatalf("seed %d: Write: %v", i, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzLoadSnapshot hammers the binary snapshot loader with mutated
// snapshots and arbitrary bytes. The loader must never panic and never
// over-allocate on lying length fields; anything it does accept must be a
// self-consistent maintainer whose re-serialization round-trips.
func FuzzLoadSnapshot(f *testing.F) {
	seeds := fuzzSeedSnapshots(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	// The first seed relabeled as format version 1, to keep the version
	// check on the explored paths.
	old := append([]byte(nil), seeds[0]...)
	binary.LittleEndian.PutUint32(old[8:], 1)
	f.Add(old)
	// The retained-bounds seed with a candidate pair also holding a bound:
	// a CRC-valid section the loader must refuse.
	f.Add(withCandidates(f, seeds[1], func(d *core.CandidateData) { retainBound(d, d.CandPairs[0]) }))
	// A snapshot whose candidates read pruned pairs, without the bound of
	// one of them, which the loader must refuse, and with the bound of
	// every pruned pair, as snapshots written before the set kept only the
	// read ones carry, which it must accept.
	mt, bounds := boundsFixture(f, core.DefaultOptions(exact.S).DenseCapPairs)
	f.Add(withCandidates(f, bounds, dropFirstBound))
	f.Add(withCandidates(f, bounds, withAllBounds(mt.Index().Candidates())))
	f.Add([]byte("FSIMSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		mt, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		// Accepted snapshots must re-serialize and load back identically
		// (idempotence of the accepted set), and basic reads must work.
		var buf bytes.Buffer
		if err := Write(mt, &buf); err != nil {
			t.Fatalf("re-serializing an accepted snapshot failed: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading a re-serialized snapshot failed: %v", err)
		}
		if mt.Graph().Stats() != again.Graph().Stats() || mt.Version() != again.Version() {
			t.Fatalf("round trip diverged: %v@%d vs %v@%d",
				mt.Graph().Stats(), mt.Version(), again.Graph().Stats(), again.Version())
		}
		if n := mt.Graph().NumNodes(); n > 0 {
			if _, err := mt.Score(0, 0); err != nil {
				t.Fatalf("Score on an accepted snapshot failed: %v", err)
			}
			if _, err := mt.TopK(0, 3); err != nil {
				t.Fatalf("TopK on an accepted snapshot failed: %v", err)
			}
		}
	})
}
