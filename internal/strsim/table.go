package strsim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
)

// Table is the label layer of the framework over two interned label
// vocabularies: the label constraint L ≥ θ (Remark 2) of every label pair,
// and L itself for the pairs that pass it. The iterative framework reads
// L only for label-eligible pairs, so the table keeps nothing else: three
// loads and a popcount per lookup instead of a string-similarity
// computation per node pair per iteration.
//
// It holds three arrays:
//
//   - the |Σ1|×|Σ2| eligibility bit matrix, each row padded to whole
//     64-bit words;
//   - the values of the eligible cells, row-major;
//   - one int32 per matrix word, the number of values stored before that
//     word's first cell, so a cell's value sits at its word's prefix plus
//     the popcount of the eligible cells below it in the word.
//
// A self table — both vocabularies the same slice, scored by a built-in
// (each is symmetric) — evaluates and stores each unordered label pair
// once: its values are the eligible cells of the triangle i ≥ j, the
// prefix counts only columns ≤ row, and the bits of (j, i) are mirrored
// from (i, j) so every row of the matrix is complete. Every other table
// (two vocabularies, or a custom Func, which may be asymmetric) evaluates
// and stores the square. The fill is quadratic in labels, not nodes; what
// stays resident is |Σ1|·⌈|Σ2|/64⌉·12 bytes of matrix and prefix plus 8
// bytes per stored value. ACMCit's 72K labels would keep ~0.97 GB of
// matrix and prefix at any θ plus 8 B per eligible pair of the triangle,
// while the fill still evaluates all 2.6 G pairs of the triangle; at
// θ = 0, where every pair is eligible, that is more values than the int32
// prefix addresses, and NewTable fails.
type Table struct {
	bits     []uint64  // row i at bits[i·rowWords : (i+1)·rowWords]
	pre      []int32   // per word of bits: values stored before it
	vals     []float64 // the eligible cells' values, row-major
	rowWords int
	count    int  // set bits of the matrix, mirrored ones included
	sym      bool // triangle layout; |Σ1| == |Σ2|
}

// tableChunkCells is about the number of table cells a worker evaluates
// per grab (whole rows, at least one); a table of one chunk is filled on
// the calling goroutine alone.
const tableChunkCells = 2048

// tableSegment is where one chunk's values sit in the buffer of the worker
// that evaluated it.
type tableSegment struct {
	worker, lo, hi int
}

// tablePage is the number of values in one page of a worker's value
// buffer.
const tablePage = 256

// valuePages is a worker's value buffer: fixed pages, appended to and
// never moved, so a fill copies each value once, into the table, however
// many cells the worker keeps. A buffer grown by doubling would allocate
// about twice its final size on the way, and at θ = 0 it keeps every
// cell.
type valuePages struct {
	pages [][]float64
	n     int
}

func (b *valuePages) add(l float64) {
	if b.n%tablePage == 0 {
		b.pages = append(b.pages, make([]float64, tablePage))
	}
	b.pages[b.n/tablePage][b.n%tablePage] = l
	b.n++
}

// appendTo appends values [lo, hi) to dst.
func (b *valuePages) appendTo(dst []float64, lo, hi int) []float64 {
	for lo < hi {
		page, off := b.pages[lo/tablePage], lo%tablePage
		k := min(hi-lo, tablePage-off)
		dst = append(dst, page[off:off+k]...)
		lo += k
	}
	return dst
}

// NewTable evaluates fn over names1 × names2 eagerly, on up to threads
// goroutines (fn must be safe for concurrent use; this package's functions
// are), and keeps the cells with L ≥ θ (a NaN cell is never kept). Chunks
// are cut by cells, not rows, so the rows of a triangle, which grow with
// i, are spread evenly over the workers. A worker sets bits only in its
// own rows' words and appends its chunks' values to its own buffer; the
// chunks are then concatenated in row order, so the table is the same at
// any thread count. It fails when more than math.MaxInt32 cells are
// eligible (16 GiB of values), which the int32 prefix cannot address.
func NewTable(fn Func, names1, names2 []string, theta float64, threads int) (*Table, error) {
	n1, n2 := len(names1), len(names2)
	t := &Table{rowWords: (n2 + 63) / 64, sym: symmetricSelf(fn, names1, names2)}
	t.bits = make([]uint64, n1*t.rowWords)
	width := func(i int) int { // the cells row i evaluates
		if t.sym {
			return i + 1
		}
		return n2
	}
	var chunks []int // chunk c is rows [chunks[c], chunks[c+1]), ~tableChunkCells cells
	cells := 0
	for i := 0; i < n1; i++ {
		if cells == 0 {
			chunks = append(chunks, i)
		}
		if cells += width(i); cells >= tableChunkCells {
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
	segs := make([]tableSegment, len(chunks)-1)
	workers := max(min(threads, len(segs)), 1)
	bufs := make([]valuePages, workers)
	var cursor atomic.Int64
	claim := func(w int) {
		var buf valuePages    // local, so workers share no cache line while filling
		var pos bytePositions // the current row's label, when prepared
		for {
			c := int(cursor.Add(1)) - 1
			if c >= len(segs) {
				break
			}
			lo := buf.n
			for i := chunks[c]; i < chunks[c+1]; i++ {
				row, a := t.bits[i*t.rowWords:(i+1)*t.rowWords], names1[i]
				// JaroWinkler is symmetric, so the cell is scored as
				// JaroWinkler(names2[j], a) with a prepared once.
				prepared := jw && shortASCII(a)
				if prepared {
					pos.set(a)
				}
				for j, wd := 0, width(i); j < wd; j++ {
					var l float64
					switch b := names2[j]; {
					case !jw:
						l = fn(a, b)
					case prepared && short2[j] && a != b:
						l = winkler(jaroShort(b, a, &pos), b, a)
					default:
						l = JaroWinkler(a, b)
					}
					if l >= theta {
						row[j/64] |= 1 << (uint(j) % 64)
						buf.add(l)
					}
				}
				if prepared {
					pos.clear(a)
				}
			}
			segs[c] = tableSegment{worker: w, lo: lo, hi: buf.n}
		}
		bufs[w] = buf
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			claim(w)
		}(w)
	}
	claim(0) // the calling goroutine is worker 0
	wg.Wait()

	stored := 0
	for _, s := range segs {
		stored += s.hi - s.lo
	}
	if stored > math.MaxInt32 {
		return nil, fmt.Errorf("strsim: %d eligible label pairs exceed the %d values a label table addresses; raise θ", stored, math.MaxInt32)
	}
	t.vals = make([]float64, 0, stored)
	for _, s := range segs {
		t.vals = bufs[s.worker].appendTo(t.vals, s.lo, s.hi)
	}
	// Until the mirror below, the matrix holds exactly the stored cells, so
	// a plain running count is the prefix.
	t.pre = make([]int32, len(t.bits))
	n := int32(0)
	for k, word := range t.bits {
		t.pre[k] = n
		n += int32(bits.OnesCount64(word))
	}
	if t.sym {
		for i := 0; i < n1; i++ {
			for w, word := range t.bits[i*t.rowWords : i*t.rowWords+i/64+1] {
				for ; word != 0; word &= word - 1 {
					j := w*64 + bits.TrailingZeros64(word)
					t.bits[j*t.rowWords+i/64] |= 1 << (uint(i) % 64)
				}
			}
		}
	}
	for _, word := range t.bits {
		t.count += bits.OnesCount64(word)
	}
	return t, nil
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

// Sim returns the similarity of label i (from vocabulary 1) and label j
// (from vocabulary 2) when the pair is eligible, and 0 when it is not:
// the table keeps no value below θ.
func (t *Table) Sim(i, j int) float64 {
	if t.sym && j > i {
		i, j = j, i
	}
	at := i*t.rowWords + j/64
	word, bit := t.bits[at], uint64(1)<<(uint(j)%64)
	if word&bit == 0 {
		return 0
	}
	return t.vals[int(t.pre[at])+bits.OnesCount64(word&(bit-1))]
}

// Eligible reports L(i, j) ≥ θ.
func (t *Table) Eligible(i, j int) bool {
	return t.bits[i*t.rowWords+j/64]&(1<<(uint(j)%64)) != 0
}

// Row returns the eligibility words of label i of vocabulary 1: bit j%64
// of word j/64 is set iff (i, j) is eligible.
func (t *Table) Row(i int) []uint64 {
	return t.bits[i*t.rowWords : (i+1)*t.rowWords]
}

// RowWords is the number of words of every Row, ⌈|Σ2|/64⌉.
func (t *Table) RowWords() int { return t.rowWords }

// EligiblePairs is the number of eligible (i, j) label pairs, both orders
// of a self table's pairs counted.
func (t *Table) EligiblePairs() int { return t.count }

// Stored is the number of values the table keeps: the eligible pairs, of
// the triangle i ≥ j only in a self table.
func (t *Table) Stored() int { return len(t.vals) }
