package strsim

import (
	"sync"
	"sync/atomic"
)

// Table caches L(·) over the cross product of two interned label vocabularies
// so the iterative framework pays one multiply-indexed load per lookup
// instead of a string-similarity computation per node pair per iteration.
type Table struct {
	sims []float64
	n2   int
}

// tableChunkCells is about the number of table cells a worker claims per
// grab (whole rows, at least one); a table of one chunk is filled on the
// calling goroutine alone.
const tableChunkCells = 2048

// NewTable evaluates fn over names1 × names2 eagerly, rows split across up
// to threads goroutines (fn must be safe for concurrent use; this package's
// functions are). The table is quadratic in labels, not nodes: the paper's
// datasets have at most a few hundred labels per graph, while ACMCit's 72K
// labels would need a ~41 GB table.
func NewTable(fn Func, names1, names2 []string, threads int) *Table {
	t := &Table{sims: make([]float64, len(names1)*len(names2)), n2: len(names2)}
	rows := max(tableChunkCells/max(t.n2, 1), 1)
	workers := min(threads, (len(names1)+rows-1)/rows)
	var cursor atomic.Int64
	claim := func() {
		for {
			end := int(cursor.Add(int64(rows)))
			beg := end - rows
			if beg >= len(names1) {
				return
			}
			for i := beg; i < min(end, len(names1)); i++ {
				row := t.sims[i*t.n2 : (i+1)*t.n2]
				for j, b := range names2 {
					row[j] = fn(names1[i], b)
				}
			}
		}
	}
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

// Sim returns the cached similarity of label i (from vocabulary 1) and
// label j (from vocabulary 2).
func (t *Table) Sim(i, j int) float64 { return t.sims[i*t.n2+j] }

// MaxPerRow returns, for each label of vocabulary 1, the maximum similarity
// achievable against any label of vocabulary 2 — used by the upper-bound
// pruning to bound unmatched contributions.
func (t *Table) MaxPerRow() []float64 {
	n1 := len(t.sims) / t.n2
	out := make([]float64, n1)
	for i := 0; i < n1; i++ {
		best := 0.0
		for j := 0; j < t.n2; j++ {
			if s := t.sims[i*t.n2+j]; s > best {
				best = s
			}
		}
		out[i] = best
	}
	return out
}
