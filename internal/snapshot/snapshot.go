// Package snapshot persists a dynamic.Maintainer — the CSR graph with its
// label table, the candidate component with its §3.4 bounds, the
// maintained scores, and the graph-version counter — as a crash-safe
// binary file, so a serving process can warm start from its last
// checkpoint instead of re-parsing text and re-running the Algorithm 1
// fixed point.
//
// # Format
//
// A snapshot is an 8-byte magic ("FSIMSNAP") and a u32 format version,
// followed by five sections in fixed order:
//
//	OPTS  the normalized core.Options (variant, weights, label function id,
//	      θ, ε, iteration budget, store cap, §3.4 configuration, operators)
//	GRPH  the graph: label table, per-node labels, both CSR directions
//	SCND  the candidate component: store shape, candidate enumeration,
//	      retained §3.4 bounds of pruned pairs
//	SCOR  the scores: a u64 count, then one f64 per candidate in SCND's
//	      enumeration order (u·|V|+v when every pair is a candidate);
//	      non-candidates carry no score, their §3.4 stand-ins re-derive
//	      from SCND
//	IVER  the query index's graph-version counter
//
// Each section is framed as a 4-byte tag, a u64 payload length, the
// payload and a CRC32 (IEEE) of the payload; all integers are
// little-endian. Any truncation, bit flip or structural inconsistency
// surfaces as an error wrapping ErrCorrupt — the loader validates every
// invariant downstream code relies on and never returns a silently-wrong
// maintainer. A header of another format version fails with ErrVersion
// instead: version 1 files (a dense |V|² score buffer or a keyed sparse
// map in SCOR) are not read; cold-start from the graph text.
//
// Only state that cannot be recomputed cheaply is stored: the label index,
// degree maxima, similarity table, candidate bitmap/hash index and the
// row offsets of the retained bounds are all re-derived on load, which
// keeps snapshots compact and loading I/O-bound.
//
// # Atomicity
//
// Save writes to a temporary file in the destination directory, syncs it,
// and renames it over the target, so a crash mid-write leaves the previous
// snapshot intact — the property that makes periodic checkpointing from a
// live server safe.
//
// Options with function-valued fields cannot be persisted: a custom
// Options.Init is rejected (as it is by dynamic.New), and Options.Label
// must be one of the three named similarity functions (Jaro-Winkler,
// indicator, normalized edit distance).
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"fsim/internal/core"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/pairbits"
	"fsim/internal/strsim"
)

// ErrCorrupt marks a snapshot that failed validation: truncated, bit-flipped,
// or structurally inconsistent. Every Load/Read failure on bad input wraps
// it, except a format-version mismatch (ErrVersion).
var ErrCorrupt = errors.New("snapshot: corrupt or truncated snapshot")

// ErrVersion marks a well-formed header carrying a format version this
// build does not read — typically a snapshot written before the last
// format change. Such a file is not damaged, only unreadable here; the
// error names both versions and tells the operator to cold-start.
var ErrVersion = errors.New("snapshot: unsupported format version")

const (
	magic = "FSIMSNAP"
	// formatVersion is bumped on any wire-format change; readers reject
	// versions they do not understand instead of guessing.
	formatVersion = 2

	tagOptions    = "OPTS"
	tagGraph      = "GRPH"
	tagCandidates = "SCND"
	tagScores     = "SCOR"
	tagVersion    = "IVER"
)

// Save atomically writes mt's state to path: the snapshot is assembled in
// a temporary file in path's directory, synced, renamed over path, and the
// parent directory is synced, so readers never observe a partial snapshot
// and a crash preserves either the previous or the new one. The directory
// sync is what makes the rename itself durable: rename only updates the
// directory entry, and a crash before the directory's metadata reaches
// disk can lose the entry entirely — warm start would then silently fall
// back to a cold start. The state is serialized into memory first and
// written to disk afterwards, so the maintainer's read lock — which
// excludes Apply — is held only for the memory-bound encoding, never
// across disk I/O: a slow disk cannot stall the update path, at the price
// of buffering one snapshot (the graph, the candidate list with its
// retained bounds, and one score per candidate) during the call.
func Save(mt *dynamic.Maintainer, path string) error {
	var buf bytes.Buffer
	if err := Write(mt, &buf); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temporary file: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if _, err := buf.WriteTo(f); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: opening directory %s for sync: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("snapshot: syncing directory %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("snapshot: closing directory %s: %w", dir, err)
	}
	return nil
}

// Load reads a snapshot file and reconstructs the maintainer it captured.
func Load(path string) (*dynamic.Maintainer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: opening %s: %w", path, err)
	}
	defer f.Close()
	mt, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	return mt, nil
}

// Write serializes mt's state to w under the maintainer's read lock,
// which excludes Apply for the duration — hand in a fast destination (an
// in-memory buffer, as Save does) when updates must not stall behind a
// slow writer. The stream is written sequentially.
func Write(mt *dynamic.Maintainer, w io.Writer) error {
	return mt.ViewSnapshot(func(st dynamic.SnapshotState) error {
		return writeState(st, w)
	})
}

func writeState(st dynamic.SnapshotState, w io.Writer) error {
	var hdr [12]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}

	var e enc
	if err := encodeOptions(&e, st.Candidates.Options()); err != nil {
		return err
	}
	if err := writeSection(w, tagOptions, e.b); err != nil {
		return err
	}

	e.reset()
	encodeGraph(&e, st.Graph)
	if err := writeSection(w, tagGraph, e.b); err != nil {
		return err
	}

	e.reset()
	encodeCandidates(&e, st.Candidates.Data())
	if err := writeSection(w, tagCandidates, e.b); err != nil {
		return err
	}

	e.reset()
	encodeScores(&e, st.Scores)
	if err := writeSection(w, tagScores, e.b); err != nil {
		return err
	}

	e.reset()
	e.u64(st.Version)
	return writeSection(w, tagVersion, e.b)
}

// Read deserializes a snapshot stream and reconstructs its maintainer,
// validating the format version, every section checksum and every
// structural invariant along the way.
func Read(r io.Reader) (*dynamic.Maintainer, error) {
	// readSection reads each payload into an exactly sized buffer, so the
	// reader only batches the section headers and checksums.
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return nil, fmt.Errorf("%w: the file is format version %d, this build reads only version %d; cold-start from the graph text (the next checkpoint writes a version %d snapshot)",
			ErrVersion, v, formatVersion, formatVersion)
	}

	payload, err := readSection(br, tagOptions)
	if err != nil {
		return nil, err
	}
	opts, err := decodeOptions(payload)
	if err != nil {
		return nil, err
	}

	if payload, err = readSection(br, tagGraph); err != nil {
		return nil, err
	}
	g, err := decodeGraph(payload)
	if err != nil {
		return nil, err
	}

	if payload, err = readSection(br, tagCandidates); err != nil {
		return nil, err
	}
	cs, err := decodeCandidates(payload, g, opts)
	if err != nil {
		return nil, err
	}

	if payload, err = readSection(br, tagScores); err != nil {
		return nil, err
	}
	scores, err := decodeScores(payload)
	if err != nil {
		return nil, err
	}
	st := dynamic.SnapshotState{Graph: g, Candidates: cs, Scores: scores}

	if payload, err = readSection(br, tagVersion); err != nil {
		return nil, err
	}
	d := dec{b: payload}
	st.Version = d.u64()
	d.done()
	if d.err != nil {
		return nil, d.err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after final section", ErrCorrupt)
	}

	mt, err := dynamic.NewFromSnapshot(st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return mt, nil
}

// encodeOptions persists the normalized options. Threads is deliberately
// omitted: it is a property of the loading host (results are identical at
// any thread count), so normalize re-derives it from GOMAXPROCS on load.
func encodeOptions(e *enc, o core.Options) error {
	if o.Init != nil {
		return errors.New("snapshot: custom Options.Init cannot be persisted")
	}
	labelID, ok := strsim.WireID(o.Label)
	if !ok {
		return errors.New("snapshot: custom Options.Label functions cannot be persisted; use JaroWinkler, Indicator or NormalizedEditDistance")
	}
	e.u8(uint8(o.Variant))
	e.f64(o.WPlus)
	e.f64(o.WMinus)
	e.u8(labelID)
	e.f64(o.Theta)
	e.f64(o.Epsilon)
	e.boolean(o.RelativeEps)
	e.u32(uint32(o.MaxIters))
	e.u64(uint64(o.DenseCapPairs))
	e.boolean(o.PinDiagonal)
	e.boolean(o.DeltaMode)
	e.f64(o.DeltaEps)
	e.f64(o.Damping)
	e.boolean(o.UpperBoundOpt != nil)
	if ub := o.UpperBoundOpt; ub != nil {
		e.f64(ub.Alpha)
		e.f64(ub.Beta)
	}
	ops := o.Operators
	e.u8(uint8(ops.Mapping))
	e.u8(uint8(ops.Norm))
	e.f64(ops.EmptyBoth)
	e.f64(ops.EmptyS1)
	e.f64(ops.EmptyS2)
	e.boolean(ops.ExactMatching)
	return nil
}

func decodeOptions(payload []byte) (core.Options, error) {
	d := dec{b: payload}
	var o core.Options
	o.Variant = exact.Variant(d.u8())
	o.WPlus = d.f64()
	o.WMinus = d.f64()
	labelID := d.u8()
	o.Theta = d.f64()
	o.Epsilon = d.f64()
	o.RelativeEps = d.boolean()
	o.MaxIters = int(d.u32())
	o.DenseCapPairs = int(d.u64())
	o.PinDiagonal = d.boolean()
	o.DeltaMode = d.boolean()
	o.DeltaEps = d.f64()
	o.Damping = d.f64()
	if hasUB := d.boolean(); hasUB {
		o.UpperBoundOpt = &core.UpperBound{Alpha: d.f64(), Beta: d.f64()}
	}
	var ops core.Operators
	ops.Mapping = core.MappingKind(d.u8())
	ops.Norm = core.NormKind(d.u8())
	ops.EmptyBoth = d.f64()
	ops.EmptyS1 = d.f64()
	ops.EmptyS2 = d.f64()
	ops.ExactMatching = d.boolean()
	o.Operators = &ops
	d.done()
	if d.err != nil {
		return core.Options{}, d.err
	}

	if int(o.Variant) < 0 || int(o.Variant) >= len(exact.Variants) {
		return core.Options{}, fmt.Errorf("%w: unknown variant id %d", ErrCorrupt, o.Variant)
	}
	if o.Label = strsim.ByWireID(labelID); o.Label == nil {
		return core.Options{}, fmt.Errorf("%w: unknown label function id %d", ErrCorrupt, labelID)
	}
	if ops.Mapping < core.MapBest || ops.Mapping > core.MapProduct {
		return core.Options{}, fmt.Errorf("%w: unknown mapping operator %d", ErrCorrupt, ops.Mapping)
	}
	if ops.Norm < core.NormS1 || ops.Norm > core.NormProduct {
		return core.Options{}, fmt.Errorf("%w: unknown normalizing operator %d", ErrCorrupt, ops.Norm)
	}
	for _, v := range []float64{ops.EmptyBoth, ops.EmptyS1, ops.EmptyS2} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return core.Options{}, fmt.Errorf("%w: empty-neighborhood score %v outside [0,1]", ErrCorrupt, v)
		}
	}
	if o.MaxIters <= 0 || o.DenseCapPairs <= 0 || o.Epsilon <= 0 ||
		math.IsNaN(o.Epsilon) || math.IsNaN(o.WPlus) || math.IsNaN(o.WMinus) ||
		math.IsNaN(o.Theta) || math.IsNaN(o.DeltaEps) || math.IsNaN(o.Damping) {
		return core.Options{}, fmt.Errorf("%w: options fields outside their normalized domains", ErrCorrupt)
	}
	if ub := o.UpperBoundOpt; ub != nil && (math.IsNaN(ub.Alpha) || math.IsNaN(ub.Beta)) {
		return core.Options{}, fmt.Errorf("%w: upper-bound parameters are NaN", ErrCorrupt)
	}
	return o, nil
}

func encodeGraph(e *enc, g *graph.Graph) {
	c := g.CSR()
	e.u32(uint32(len(c.Labels)))
	e.u32(uint32(len(c.LabelNames)))
	for _, name := range c.LabelNames {
		e.str(name)
	}
	for _, l := range c.Labels {
		e.u32(uint32(l))
	}
	e.u64(uint64(len(c.OutAdj)))
	for _, off := range c.OutOff {
		e.u32(uint32(off))
	}
	for _, v := range c.OutAdj {
		e.u32(uint32(v))
	}
	for _, off := range c.InOff {
		e.u32(uint32(off))
	}
	for _, v := range c.InAdj {
		e.u32(uint32(v))
	}
}

func decodeGraph(payload []byte) (*graph.Graph, error) {
	d := dec{b: payload}
	n := int(d.u32())
	numLabels := int(d.u32())
	if d.err == nil && numLabels > len(d.b)/4 {
		d.fail("label table count %d exceeds remaining payload", numLabels)
	}
	var c graph.CSR
	if d.err == nil {
		c.LabelNames = make([]string, numLabels)
		for i := range c.LabelNames {
			c.LabelNames[i] = d.str()
		}
	}
	if d.err == nil && n > len(d.b)/4 {
		d.fail("node count %d exceeds remaining payload", n)
	}
	if d.err == nil {
		c.Labels = make([]graph.Label, n)
		for i := range c.Labels {
			c.Labels[i] = graph.Label(d.u32())
		}
	}
	m := d.count(4)
	// The rest of the section is exactly two offset arrays and two
	// adjacency arrays; anything else is corruption, checked before the
	// counts drive any allocation.
	if d.err == nil && uint64(len(d.b)) != uint64(m)*8+uint64(n+1)*8 {
		d.fail("adjacency payload is %d bytes, %d edges over %d nodes need %d", len(d.b), m, n, uint64(m)*8+uint64(n+1)*8)
	}
	readOffsets := func() []int32 {
		out := make([]int32, n+1)
		for i := range out {
			out[i] = int32(d.u32())
		}
		return out
	}
	readAdj := func() []graph.NodeID {
		out := make([]graph.NodeID, m)
		for i := range out {
			out[i] = graph.NodeID(d.u32())
		}
		return out
	}
	if d.err == nil {
		c.OutOff = readOffsets()
		c.OutAdj = readAdj()
		c.InOff = readOffsets()
		c.InAdj = readAdj()
	}
	d.done()
	if d.err != nil {
		return nil, d.err
	}
	g, err := graph.FromCSR(c)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// Candidate store modes on the wire.
const (
	candAllPairs = 0
	candDense    = 1
	candSparse   = 2
)

func encodeCandidates(e *enc, d core.CandidateData) {
	switch {
	case d.AllPairs:
		e.u8(candAllPairs)
	case d.Dense:
		e.u8(candDense)
	default:
		e.u8(candSparse)
	}
	e.u64(uint64(d.PrunedCount))
	if d.AllPairs {
		return
	}
	e.u64(uint64(len(d.CandPairs)))
	for _, k := range d.CandPairs {
		e.u64(uint64(k))
	}
	e.u32(uint32(len(d.RowOff)))
	for _, off := range d.RowOff {
		e.u32(uint32(off))
	}
	e.u64(uint64(len(d.PrunedKeys)))
	for _, k := range d.PrunedKeys {
		e.u64(uint64(k))
	}
	e.f64s(d.PrunedBounds)
}

func decodeCandidates(payload []byte, g *graph.Graph, opts core.Options) (*core.CandidateSet, error) {
	d := dec{b: payload}
	mode := d.u8()
	var data core.CandidateData
	switch mode {
	case candAllPairs:
		data.Dense, data.AllPairs = true, true
	case candDense:
		data.Dense = true
	case candSparse:
	default:
		d.fail("unknown candidate store mode %d", mode)
	}
	data.PrunedCount = int(d.u64())
	if mode != candAllPairs && d.err == nil {
		nc := d.count(8)
		data.CandPairs = make([]pairbits.Key, nc)
		for i := range data.CandPairs {
			data.CandPairs[i] = pairbits.Key(d.u64())
		}
		nOff := int(d.u32())
		if d.err == nil && nOff > len(d.b)/4 {
			d.fail("row offset count %d exceeds remaining payload", nOff)
		}
		if d.err == nil {
			data.RowOff = make([]int32, nOff)
			for i := range data.RowOff {
				data.RowOff[i] = int32(d.u32())
			}
		}
		np := d.count(16) // 8 bytes key + 8 bytes bound per entry
		if d.err == nil {
			data.PrunedKeys = make([]pairbits.Key, np)
			for i := range data.PrunedKeys {
				data.PrunedKeys[i] = pairbits.Key(d.u64())
			}
			data.PrunedBounds = d.f64s(np)
		}
	}
	d.done()
	if d.err != nil {
		return nil, d.err
	}
	if n := int64(g.NumNodes()); data.PrunedCount < 0 || int64(data.PrunedCount) > n*n {
		return nil, fmt.Errorf("%w: pruned count %d outside the %d×%d universe", ErrCorrupt, data.PrunedCount, n, n)
	}
	cs, err := core.NewCandidateSetFromData(g, g, opts, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return cs, nil
}

func encodeScores(e *enc, scores []float64) {
	e.u64(uint64(len(scores)))
	e.f64s(scores)
}

func decodeScores(payload []byte) ([]float64, error) {
	d := dec{b: payload}
	scores := d.f64s(d.count(8))
	d.done()
	if d.err != nil {
		return nil, d.err
	}
	// Scores are convex combinations of label similarities, so anything
	// outside [0,1] (a hair of float headroom allowed) marks corruption;
	// the comparison is written to reject NaN as well.
	const scoreMax = 1 + 1e-9
	for i, s := range scores {
		if !(s >= 0 && s <= scoreMax) {
			return nil, fmt.Errorf("%w: score of candidate %d is %v, outside [0,1]", ErrCorrupt, i, s)
		}
	}
	return scores, nil
}
