package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from the current snapshot bytes")

const digestFile = "testdata/digests.txt"

// servingSnapshotOptions is the configuration `fsim snapshot` and
// fsimserve default to: bj, θ = 0.6, §3.4 pruning with α = 0.3 and
// β = 0.5, twelve pinned iterations.
func servingSnapshotOptions() core.Options {
	opts := core.DefaultOptions(exact.BJ)
	opts.Threads = 2
	opts.Theta = 0.6
	opts.UpperBoundOpt = &core.UpperBound{Alpha: 0.3, Beta: 0.5}
	return opts.WithPinnedIterations(12)
}

// TestSnapshotDigests pins the exact bytes of snapshots at the serving
// configuration by their SHA-256: the paper's Figure 1 graph (the file
// CI's snapshot round trip uses) and the NELL stand-in at 1/90 scale (the
// serving benchmark's graph, whose restore re-derives the label layer and
// keeps §3.4 bounds). Each snapshot is also read back and written again,
// which must give the same bytes. A change that moves any score, candidate
// or bound bit shows here; an intended one is recorded with
// go test ./internal/snapshot -run TestSnapshotDigests -update.
func TestSnapshotDigests(t *testing.T) {
	figure1, err := graph.ReadFile(filepath.Join("..", "..", "testdata", "figure1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", figure1},
		{"nell-90", dataset.MustPaperSpec("NELL", 90).Generate()},
	}
	var got strings.Builder
	for _, tc := range graphs {
		mt, err := dynamic.New(tc.g, servingSnapshotOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := Write(mt, &buf); err != nil {
			t.Fatalf("%s: Write: %v", tc.name, err)
		}
		restored, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Read: %v", tc.name, err)
		}
		var again bytes.Buffer
		if err := Write(restored, &again); err != nil {
			t.Fatalf("%s: Write after Read: %v", tc.name, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("%s: re-writing a restored snapshot changed its bytes", tc.name)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&got, "%s %s\n", tc.name, hex.EncodeToString(sum[:]))
	}

	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("snapshot digests changed:\ngot:\n%swant:\n%s", got.String(), want)
	}
}
