package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
)

// validSnapshot builds one serialized snapshot for the corruption suite.
func validSnapshot(t *testing.T, seed int64) []byte {
	t.Helper()
	mt := buildMaintainer(t, seed)
	var buf bytes.Buffer
	if err := Write(mt, &buf); err != nil {
		t.Fatalf("seed %d: Write: %v", seed, err)
	}
	return buf.Bytes()
}

// mustRejectCorrupt asserts Read on a corrupted snapshot returns a
// descriptive error — it must not panic and must not hand back a
// maintainer built from damaged bytes.
func mustRejectCorrupt(t *testing.T, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Read panicked: %v", what, r)
		}
	}()
	mt, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Read accepted corrupted input (graph %v)", what, mt.Graph().Stats())
	}
	if err.Error() == "" {
		t.Fatalf("%s: corruption error carries no message", what)
	}
}

// TestCorruptionProperty damages valid snapshots two ways — truncation at
// every prefix length drawn from a random sample plus all section
// boundaries, and single-bit flips at random offsets — and asserts every
// damaged stream is rejected with a descriptive error. Bit flips inside a
// payload are caught by the per-section CRC32; flips and cuts in the
// framing are caught by the magic/version/tag/length validation.
func TestCorruptionProperty(t *testing.T) {
	for _, seed := range []int64{0, 1, 5, 9} { // dense, sparse, θ>0, §3.4 configs
		data := validSnapshot(t, seed)
		rng := rand.New(rand.NewSource(seed*313 + 11))

		lengths := map[int]bool{0: true, 1: true, len(data) - 1: true, len(data) / 2: true}
		for i := 0; i < 40; i++ {
			lengths[rng.Intn(len(data))] = true
		}
		for cut := range lengths {
			mustRejectCorrupt(t, data[:cut], fmt.Sprintf("seed %d: truncation to %d/%d bytes", seed, cut, len(data)))
		}

		for i := 0; i < 200; i++ {
			pos := rng.Intn(len(data))
			bit := byte(1) << rng.Intn(8)
			flipped := append([]byte(nil), data...)
			flipped[pos] ^= bit
			mustRejectCorrupt(t, flipped, fmt.Sprintf("seed %d: bit flip at byte %d mask %#x", seed, pos, bit))
		}
	}
}

// TestCorruptEmptyAndGarbage covers the degenerate inputs a loader meets
// in practice: empty files, files shorter than the header, and
// wrong-format files that happen to be readable.
func TestCorruptEmptyAndGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"short header":  []byte("FSIM"),
		"wrong magic":   []byte("NOTASNAP\x01\x00\x00\x00"),
		"text file":     []byte("n person\nn post\ne 0 1\n"),
		"magic only":    []byte("FSIMSNAP"),
		"future format": append([]byte("FSIMSNAP"), 0xff, 0xff, 0xff, 0xff),
	}
	for name, data := range cases {
		mustRejectCorrupt(t, data, name)
	}
}

// TestFormatVersionMismatch checks that a snapshot whose header carries
// another format version — here version 1, whose SCOR section held a
// dense |V|² buffer or a keyed sparse map — is refused with ErrVersion,
// not reported as corruption, and that the error names both versions and
// points the operator at a cold start.
func TestFormatVersionMismatch(t *testing.T) {
	data := validSnapshot(t, 0)
	binary.LittleEndian.PutUint32(data[8:], 1)
	_, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Read accepted a version 1 snapshot")
	}
	if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("want an ErrVersion error that does not wrap ErrCorrupt, got %v", err)
	}
	for _, want := range []string{"format version 1", fmt.Sprintf("version %d", formatVersion), "cold-start from the graph text"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %q does not mention %q", err, want)
		}
	}
}

// withCandidates re-encodes the SCND section of a valid snapshot after
// edit has changed its candidate data, recomputing the section checksum so
// the damage gets past the CRC to the structural validation behind it.
// edit must copy any slice it changes: the data shares them with the
// decoded candidate set.
func withCandidates(tb testing.TB, data []byte, edit func(*core.CandidateData)) []byte {
	tb.Helper()
	tags := []string{tagOptions, tagGraph, tagCandidates, tagScores, tagVersion}
	r := bytes.NewReader(data[12:])
	payloads := make([][]byte, len(tags))
	for i, tag := range tags {
		p, err := readSection(r, tag)
		if err != nil {
			tb.Fatal(err)
		}
		payloads[i] = p
	}
	opts, err := decodeOptions(payloads[0])
	if err != nil {
		tb.Fatal(err)
	}
	g, err := decodeGraph(payloads[1])
	if err != nil {
		tb.Fatal(err)
	}
	cs, err := decodeCandidates(payloads[2], g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	d := cs.Data()
	edit(&d)
	var e enc
	encodeCandidates(&e, d)
	payloads[2] = e.b
	var buf bytes.Buffer
	buf.Write(data[:12])
	for i, tag := range tags {
		if err := writeSection(&buf, tag, payloads[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// retainBound makes d retain a §3.4 bound for pair k, at its key-sorted
// position.
func retainBound(d *core.CandidateData, k pairbits.Key) {
	i, _ := slices.BinarySearch(d.PrunedKeys, k)
	d.PrunedKeys = slices.Insert(slices.Clone(d.PrunedKeys), i, k)
	d.PrunedBounds = slices.Insert(slices.Clone(d.PrunedBounds), i, 0.5)
	d.PrunedCount++
}

// boundsFixture builds the maintainer and snapshot of a graph whose
// candidates read some pruned pairs and not others (fs, θ = 0.9, §3.4
// pruning with α = 0.3 and β = 0.6), on the store capPairs selects.
func boundsFixture(tb testing.TB, capPairs int) (*dynamic.Maintainer, []byte) {
	tb.Helper()
	opts := core.DefaultOptions(exact.S)
	opts.Threads = 1
	opts.Theta = 0.9
	opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.6}
	opts.DenseCapPairs = capPairs
	mt, err := dynamic.New(dataset.RandomGraph(11, 24, 72, 3), opts)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(mt, &buf); err != nil {
		tb.Fatal(err)
	}
	return mt, buf.Bytes()
}

// withAllBounds makes d retain the §3.4 bound of every pruned pair of cs,
// read by a candidate or not, as a snapshot written before the set kept
// only the read ones does.
func withAllBounds(cs *core.CandidateSet) func(*core.CandidateData) {
	return func(d *core.CandidateData) {
		d.PrunedKeys, d.PrunedBounds = nil, nil
		g1, g2 := cs.Graphs()
		for u := 0; u < g1.NumNodes(); u++ {
			for v := 0; v < g2.NumNodes(); v++ {
				un, vn := graph.NodeID(u), graph.NodeID(v)
				if cs.Eligible(un, vn) && !cs.Contains(un, vn) {
					d.PrunedKeys = append(d.PrunedKeys, pairbits.MakeKey(un, vn))
					d.PrunedBounds = append(d.PrunedBounds, cs.RowBounds(un, []graph.NodeID{vn}, nil)[0])
				}
			}
		}
	}
}

// dropFirstBound removes the first retained bound of d: that of a pruned
// pair some candidate reads.
func dropFirstBound(d *core.CandidateData) {
	d.PrunedKeys = slices.Clone(d.PrunedKeys[1:])
	d.PrunedBounds = slices.Clone(d.PrunedBounds[1:])
}

// TestCorruptCandidateData covers candidate sections that pass the CRC but
// contradict themselves: a pair that is both a candidate and a pruned
// pair with a retained bound, a retained bound on a pair the label
// constraint excludes, and a missing bound of a pruned pair a candidate
// reads. Both stores must refuse them with ErrCorrupt. A section that
// retains the bounds of every pruned pair, as snapshots written before
// the set kept only the read ones do, must load, and saving it again
// must give the current bytes.
func TestCorruptCandidateData(t *testing.T) {
	for _, capPairs := range []int{core.DefaultOptions(exact.S).DenseCapPairs, 1} {
		mt, snap := boundsFixture(t, capPairs)
		g := mt.Graph()
		cs := mt.Index().Candidates()
		if n := len(cs.Data().PrunedKeys); n == 0 || n == cs.PrunedCount() {
			t.Fatalf("cap %d: fixture retains %d of %d pruned pairs' bounds, want some but not all", capPairs, n, cs.PrunedCount())
		}
		var ineligible []pairbits.Key
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if !cs.Eligible(graph.NodeID(u), graph.NodeID(v)) {
					ineligible = append(ineligible, pairbits.MakeKey(graph.NodeID(u), graph.NodeID(v)))
				}
			}
		}
		if len(ineligible) == 0 {
			t.Fatal("fixture has no label-ineligible pair")
		}
		cases := []struct {
			name string
			edit func(*core.CandidateData)
		}{
			{"candidate pair with a retained bound", func(d *core.CandidateData) { retainBound(d, d.CandPairs[0]) }},
			{"label-ineligible pair with a retained bound", func(d *core.CandidateData) { retainBound(d, ineligible[0]) }},
			{"read pruned pair without a retained bound", dropFirstBound},
		}
		for _, c := range cases {
			data := withCandidates(t, snap, c.edit)
			_, err := Read(bytes.NewReader(data))
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("cap %d, %s: want ErrCorrupt, got %v", capPairs, c.name, err)
			}
		}
		if _, err := Read(bytes.NewReader(withCandidates(t, snap, func(*core.CandidateData) {}))); err != nil {
			t.Fatalf("cap %d: re-encoding the untouched candidate section broke the snapshot: %v", capPairs, err)
		}

		all := withCandidates(t, snap, withAllBounds(cs))
		if len(all) <= len(snap) {
			t.Fatalf("cap %d: retaining every pruned pair's bound gave %d bytes, the read ones %d", capPairs, len(all), len(snap))
		}
		loaded, err := Read(bytes.NewReader(all))
		if err != nil {
			t.Fatalf("cap %d: a snapshot retaining every pruned pair's bound failed to load: %v", capPairs, err)
		}
		var again bytes.Buffer
		if err := Write(loaded, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("cap %d: re-saving a snapshot retaining every pruned pair's bound gave %d bytes, not the %d of a fresh one", capPairs, again.Len(), len(snap))
		}
	}
}
