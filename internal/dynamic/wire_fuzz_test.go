package dynamic

import (
	"bytes"
	"testing"

	"fsim/internal/graph"
)

// FuzzReadChangeStream fuzzes the replication wire parser — the body of a
// leader's GET /changes response, which a follower reads off the network.
// The parser must never panic, and any stream it accepts must survive a
// WriteChangeStream → ReadChangeStream round trip with equal steps.
// `go test` runs the seed corpus below, so this doubles as a
// malformed-stream regression suite.
func FuzzReadChangeStream(f *testing.F) {
	// Streams the leader writes: the step shapes of the replication tests
	// (edge inserts, a node insert with its edge, a deletion; a compacted
	// tail that starts past version 1).
	written := [][]VersionedChanges{
		{
			{Version: 1, Changes: []graph.Change{{Op: graph.OpAddEdge, U: 0, V: 7}, {Op: graph.OpAddEdge, U: 7, V: 2}}},
			{Version: 2, Changes: []graph.Change{{Op: graph.OpAddNode, Label: "fresh"}, {Op: graph.OpAddEdge, U: 1, V: 5}}},
			{Version: 3, Changes: []graph.Change{{Op: graph.OpRemoveEdge, U: 0, V: 7}}},
		},
		{
			{Version: 4, Changes: []graph.Change{{Op: graph.OpAddNode, Label: "n"}}},
			{Version: 5, Changes: []graph.Change{{Op: graph.OpAddNode, Label: "n"}}},
		},
		nil, // a caught-up tail: an empty body
	}
	for _, steps := range written {
		var buf bytes.Buffer
		if err := WriteChangeStream(&buf, steps); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		// The documented example, with comments, blank lines and CRLF.
		"# version 7\n+e 0 5\n+n label\n# version 8\n-e 2 3\n",
		"# a comment\n\n# version 1\r\n+n hello world\r\n\r\n",
		"# version 007\n+e 1 1\n",
		// Malformed streams the parser must reject cleanly.
		"+e 0 1\n", // change before the first marker
		"# version 2\n+e 0 1\n# version 4\n+e 1 0\n", // gap in the sequence
		"# version 2\n+e 0 1\n# version 2\n+e 1 0\n", // repeated version
		"# version 1\n# version 2\n+e 0 1\n",         // empty step
		"# version 1\n+e 0 1\n# version 2\n",         // truncated: empty last step
		"# version x\n+e 0 1\n",                      // bad marker
		"# version 18446744073709551616\n+e 0 1\n",   // overflow
		"# version 18446744073709551615\n+e 0 1\n# version 0\n+e 1 0\n",
		"# version 1\n+e 0\n", // bad change line
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := ReadChangeStream(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		var buf bytes.Buffer
		if err := WriteChangeStream(&buf, steps); err != nil {
			t.Fatalf("WriteChangeStream failed on an accepted stream: %v", err)
		}
		again, err := ReadChangeStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q\nwritten: %q", err, data, buf.String())
		}
		if len(again) != len(steps) {
			t.Fatalf("round trip changed the step count: %d -> %d", len(steps), len(again))
		}
		for i := range steps {
			if again[i].Version != steps[i].Version || len(again[i].Changes) != len(steps[i].Changes) {
				t.Fatalf("round trip changed step %d: version %d (%d changes) -> %d (%d changes)",
					i, steps[i].Version, len(steps[i].Changes), again[i].Version, len(again[i].Changes))
			}
			for j := range steps[i].Changes {
				if again[i].Changes[j] != steps[i].Changes[j] {
					t.Fatalf("round trip changed step %d change %d: %+v -> %+v",
						i, j, steps[i].Changes[j], again[i].Changes[j])
				}
			}
		}
	})
}
