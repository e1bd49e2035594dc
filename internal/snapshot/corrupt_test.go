package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
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
