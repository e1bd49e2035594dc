package strsim

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Table caches L(·) over the cross product of two interned label vocabularies
// so the iterative framework pays one load per lookup instead of a
// string-similarity computation per node pair per iteration.
//
// A self table — both vocabularies the same slice, scored by a built-in
// (each is symmetric) — evaluates and stores each unordered label pair
// once: the triangle i ≥ j, row i starting at cell i(i+1)/2, n(n+1)/2
// cells in all.
// Every other table (two vocabularies, or a custom Func, which may be
// asymmetric) is the square |Σ1|×|Σ2|, row-major. The table is quadratic
// in labels, not nodes: the paper's datasets have at most a few hundred
// labels per graph, while ACMCit's 72K labels would need a ~21 GB self
// table.
type Table struct {
	sims []float64
	n2   int
	sym  bool // triangle layout; |Σ1| == |Σ2|
}

// tableChunkCells is about the number of table cells a worker claims per
// grab (whole rows, at least one); a table of one chunk is filled on the
// calling goroutine alone.
const tableChunkCells = 2048

// NewTable evaluates fn over names1 × names2 eagerly, on up to threads
// goroutines (fn must be safe for concurrent use; this package's functions
// are). Chunks are cut by cells, not rows, so the rows of a triangle,
// which grow with i, are spread evenly over the workers.
func NewTable(fn Func, names1, names2 []string, threads int) *Table {
	n1, n2 := len(names1), len(names2)
	t := &Table{n2: n2, sym: symmetricSelf(fn, names1, names2)}
	if t.sym {
		t.sims = make([]float64, n1*(n1+1)/2)
	} else {
		t.sims = make([]float64, n1*n2)
	}
	var chunks []int // chunk c is rows [chunks[c], chunks[c+1]), ~tableChunkCells cells
	cells := 0
	for i := 0; i < n1; i++ {
		if cells == 0 {
			chunks = append(chunks, i)
		}
		if cells += len(t.row(i)); cells >= tableChunkCells {
			cells = 0
		}
	}
	chunks = append(chunks, n1)

	jw := sameFunc(fn, JaroWinkler)
	var short2 []bool // shortASCII of names2, for the prepared JaroWinkler rows
	if jw {
		short2 = make([]bool, n2)
		for j, b := range names2 {
			short2[j] = shortASCII(b)
		}
	}
	var cursor atomic.Int64
	claim := func() {
		var pos bytePositions // the current row's label, when prepared
		for {
			c := int(cursor.Add(1)) - 1
			if c >= len(chunks)-1 {
				return
			}
			for i := chunks[c]; i < chunks[c+1]; i++ {
				row, a := t.row(i), names1[i]
				if !jw {
					for j := range row {
						row[j] = fn(a, names2[j])
					}
					continue
				}
				// JaroWinkler is symmetric, so the cell is scored as
				// JaroWinkler(names2[j], a) with a prepared once.
				prepared := shortASCII(a)
				if prepared {
					pos.set(a)
				}
				for j := range row {
					b := names2[j]
					if prepared && short2[j] && a != b {
						row[j] = winkler(jaroShort(b, a, &pos), b, a)
					} else {
						row[j] = JaroWinkler(a, b)
					}
				}
				if prepared {
					pos.clear(a)
				}
			}
		}
	}
	workers := min(threads, len(chunks)-1)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim() // the calling goroutine is worker 0
	wg.Wait()
	return t
}

// row returns the cells of row i: columns [0, i] of a triangle, all of a
// square.
func (t *Table) row(i int) []float64 {
	if t.sym {
		return t.sims[i*(i+1)/2 : (i+1)*(i+2)/2]
	}
	return t.sims[i*t.n2 : (i+1)*t.n2]
}

// symmetricSelf reports whether the table of fn over names1 × names2 may
// be stored as a triangle: one vocabulary on both sides and a built-in,
// each of which is symmetric.
func symmetricSelf(fn Func, names1, names2 []string) bool {
	if len(names1) != len(names2) || len(names1) == 0 || &names1[0] != &names2[0] {
		return false
	}
	return builtinIndex(fn) >= 0
}

// sameFunc reports whether f and g are the same top-level function. Func
// values cannot be compared directly; their code pointers can.
func sameFunc(f, g Func) bool {
	return f != nil && g != nil && reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
}

// Sim returns the cached similarity of label i (from vocabulary 1) and
// label j (from vocabulary 2).
func (t *Table) Sim(i, j int) float64 {
	if t.sym {
		if j > i {
			i, j = j, i
		}
		return t.sims[i*(i+1)/2+j]
	}
	return t.sims[i*t.n2+j]
}
