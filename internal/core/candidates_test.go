package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// TestDensePairsOverflow pins the store-shape predicate's arithmetic: the
// pair universe is evaluated in 64-bit regardless of platform, so products
// that would wrap a 32-bit int (or exceed the configured cap) select the
// candidate rows instead of mis-addressing an all-pairs buffer.
func TestDensePairsOverflow(t *testing.T) {
	capCases := []struct {
		n1, n2, cap int
		want        bool
	}{
		{0, 0, 48_000_000, true},
		{1000, 1000, 48_000_000, true},
		{1000, 1000, 1_000_000, true},  // exactly at the cap
		{1000, 1001, 1_000_000, false}, // one row past the cap
	}
	for _, c := range capCases {
		if got, _ := storeShape(c.n1, c.n2, &Options{DenseCapPairs: c.cap}, true); got != c.want {
			t.Errorf("storeShape(%d, %d, cap=%d) dense = %v, want %v", c.n1, c.n2, c.cap, got, c.want)
		}
	}

	// 46341² ≈ 2^31 + ε wraps a 32-bit int negative; a naive `n1*n2 <= cap`
	// would accept the wrapped product. The predicate evaluates in int64, so
	// it must admit the pair universe exactly when it fits the platform int
	// (true on 64-bit builds, false on 32-bit) — never via wraparound.
	big := 46_341
	want := int64(big)*int64(big) <= int64(maxInt)
	if got, _ := storeShape(big, big, &Options{DenseCapPairs: maxInt}, true); got != want {
		t.Errorf("storeShape(%d, %d, cap=maxInt) dense = %v, want %v", big, big, got, want)
	}
}

// TestCandidateDataRejects tampers with a valid export of a candidate set
// that retains §3.4 bounds, on both stores, and checks that
// NewCandidateSetFromData refuses every inconsistent enumeration with a
// descriptive error instead of returning a set whose lookups disagree
// with what it enumerates.
func TestCandidateDataRejects(t *testing.T) {
	g := dataset.RandomGraph(11, 24, 72, 3)
	for _, capPairs := range []int{DefaultOptions(exact.S).DenseCapPairs, 1} {
		opts := DefaultOptions(exact.S)
		opts.Theta = 0.9
		opts.UpperBoundOpt = &UpperBound{Alpha: 0.3, Beta: 0.6}
		opts.DenseCapPairs = capPairs
		cs, err := NewCandidateSet(g, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		valid := cs.Data()
		if len(valid.CandPairs) == 0 || len(valid.PrunedKeys) == 0 {
			t.Fatalf("cap %d: fixture has %d candidates and %d retained bounds, want both", capPairs, len(valid.CandPairs), len(valid.PrunedKeys))
		}
		ineligible := pairbits.Key(0)
		found := false
		for u := 0; u < g.NumNodes() && !found; u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if !cs.Eligible(graph.NodeID(u), graph.NodeID(v)) {
					ineligible, found = pairbits.MakeKey(graph.NodeID(u), graph.NodeID(v)), true
					break
				}
			}
		}
		if !found {
			t.Fatal("fixture has no label-ineligible pair")
		}

		// withBound returns a copy of the valid data retaining one more
		// bound, at k's key-sorted position.
		withBound := func(k pairbits.Key) CandidateData {
			d := valid
			i, _ := slices.BinarySearch(valid.PrunedKeys, k)
			d.PrunedKeys = slices.Insert(slices.Clone(valid.PrunedKeys), i, k)
			d.PrunedBounds = slices.Insert(slices.Clone(valid.PrunedBounds), i, 0.5)
			d.PrunedCount++
			return d
		}
		cases := []struct {
			name string
			data CandidateData
			want string
		}{
			{"candidate with a retained bound", withBound(valid.CandPairs[0]), "both a candidate"},
			{"label-ineligible pair with a retained bound", withBound(ineligible), "label constraint"},
			{"label-ineligible candidate", func() CandidateData {
				d := valid
				i, _ := slices.BinarySearch(valid.CandPairs, ineligible)
				d.CandPairs = slices.Insert(slices.Clone(valid.CandPairs), i, ineligible)
				return d
			}(), "label constraint"},
			{"keys out of order", func() CandidateData {
				d := valid
				d.PrunedKeys = slices.Clone(valid.PrunedKeys)
				d.PrunedKeys = append(d.PrunedKeys, d.PrunedKeys[0])
				d.PrunedBounds = append(slices.Clone(valid.PrunedBounds), 0.5)
				d.PrunedCount++
				return d
			}(), "not strictly ascending"},
			{"NaN bound", func() CandidateData {
				d := valid
				d.PrunedBounds = slices.Clone(valid.PrunedBounds)
				d.PrunedBounds[0] = math.NaN()
				return d
			}(), "outside [0,1]"},
		}
		for _, c := range cases {
			_, err := NewCandidateSetFromData(g, g, opts, c.data)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("cap %d, %s: got error %v, want one mentioning %q", capPairs, c.name, err, c.want)
			}
		}
		if _, err := NewCandidateSetFromData(g, g, opts, valid); err != nil {
			t.Fatalf("cap %d: the untampered data was rejected: %v", capPairs, err)
		}
	}
}

// TestRowOffsets pins the row arithmetic of the candidate index and the
// retained-bound CSR: per-row sizes become row starts in place, and an
// overflow names the first row at which the running total passes the
// limit — the row the candidate-map and retained-bound errors report.
func TestRowOffsets(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int32 // off[1:] on input
		limit int
		row   int
		want  []int32 // off[1:] on output
	}{
		{"no rows", nil, 0, -1, nil},
		{"fits", []int32{3, 0, 5, 2}, 11, -1, []int32{3, 3, 8, 10}},
		{"total at the limit", []int32{3, 0, 5, 2}, 10, -1, []int32{3, 3, 8, 10}},
		{"crosses at row 2", []int32{3, 0, 5, 2}, 7, 2, []int32{3, 3, 5, 2}},
		{"crosses at row 0", []int32{3, 0, 5, 2}, 2, 0, []int32{3, 0, 5, 2}},
		{"empty rows before the crossing", []int32{0, 0, 1}, 0, 2, []int32{0, 0, 1}},
		// The running total is kept wider than int32: two rows that sum
		// past MaxInt32 are caught, not wrapped negative.
		{"int32 sum", []int32{math.MaxInt32, 1}, math.MaxInt32, 1, []int32{math.MaxInt32, 1}},
	}
	for _, c := range cases {
		off := append([]int32{0}, c.sizes...)
		if got := rowOffsets(off, c.limit); got != c.row {
			t.Errorf("%s: row %d, want %d", c.name, got, c.row)
		}
		if !slices.Equal(off[1:], c.want) || off[0] != 0 {
			t.Errorf("%s: offsets %v, want [0 %v]", c.name, off, c.want)
		}
	}
}
