package strsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// tableVocabularies returns two label vocabularies large enough for
// NewTable to split them into several chunks, overlapping in part, with
// non-ASCII and over-long labels that take the functions' rune paths.
func tableVocabularies() (names1, names2 []string) {
	names1 = []string{"alpha", "beta", "gamma", "", "été", "世界", strings.Repeat("ab", 33)}
	names2 = []string{"alpha", "delta", "be", "gamma", "ete", strings.Repeat("ab", 32)}
	for i := 0; i < 90; i++ {
		names1 = append(names1, fmt.Sprintf("label-%d", i*7))
		names2 = append(names2, fmt.Sprintf("label-%d", i*5))
	}
	return names1, names2
}

// mustTable is NewTable for tables that must fit.
func mustTable(t *testing.T, fn Func, names1, names2 []string, theta float64, threads int) *Table {
	t.Helper()
	tab, err := NewTable(fn, names1, names2, theta, threads)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// requireTable fails unless tab is fn's label layer at θ over names1 ×
// names2: every eligibility bit reads L ≥ θ, in Eligible and in Row; every
// eligible cell reads exactly the bits of fn(names1[i], names2[j]) and
// every other cell 0; and the table keeps one value per eligible cell of
// its layout, the triangle i ≥ j when sym.
func requireTable(t *testing.T, tab *Table, fn Func, theta float64, names1, names2 []string, sym bool) {
	t.Helper()
	if tab.sym != sym {
		t.Fatalf("table sym = %v, want %v", tab.sym, sym)
	}
	pairs, stored := 0, 0
	for i, a := range names1 {
		row := tab.Row(i)
		if len(row) != tab.RowWords() || len(row) != (len(names2)+63)/64 {
			t.Fatalf("row %d has %d words (RowWords %d) for %d labels", i, len(row), tab.RowWords(), len(names2))
		}
		for j, b := range names2 {
			l := fn(a, b)
			elig := l >= theta
			if got := tab.Eligible(i, j); got != elig {
				t.Fatalf("Eligible(%d, %d) = %v with L(%q, %q) = %v at θ = %v", i, j, got, a, b, l, theta)
			}
			if got := row[j/64]&(1<<(j%64)) != 0; got != elig {
				t.Fatalf("Row(%d) bit %d = %v with L = %v at θ = %v", i, j, got, l, theta)
			}
			want := 0.0
			if elig {
				want = l
				pairs++
				if !sym || j <= i {
					stored++
				}
			}
			if got := tab.Sim(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Sim(%d, %d) = %v, want %v (L(%q, %q) = %v, θ = %v)", i, j, got, want, a, b, l, theta)
			}
		}
		for j := len(names2); j < len(row)*64; j++ {
			if row[j/64]&(1<<(j%64)) != 0 {
				t.Fatalf("Row(%d) sets padding bit %d", i, j)
			}
		}
	}
	if tab.EligiblePairs() != pairs || tab.Stored() != stored {
		t.Fatalf("table counts %d eligible pairs and stores %d values, want %d and %d", tab.EligiblePairs(), tab.Stored(), pairs, stored)
	}
}

// TestTableMatchesFunction property-checks the label layer at several θ:
// every eligibility bit reads L ≥ θ and every eligible cell has the bits
// of a direct function evaluation, whether the table is filled on one
// goroutine or fanned out over several. The vocabularies span two 64-bit
// words per row, so the prefix counts cross a word edge. A self
// vocabulary (the same slice on both sides) under a built-in is stored as
// a triangle; two vocabularies, or a custom function — here an asymmetric
// one, and one that is NaN on some pairs — keep the square.
func TestTableMatchesFunction(t *testing.T) {
	names1, names2 := tableVocabularies()
	asymmetric := func(a, b string) float64 {
		if a == b {
			return 1
		}
		return float64(len(a)) / float64(len(a)+2*len(b)+1)
	}
	nan := func(a, b string) float64 {
		if len(a) == len(b) && a != b {
			return math.NaN()
		}
		return JaroWinkler(a, b)
	}
	for _, threads := range []int{1, 2, 8} {
		for _, theta := range []float64{0, 0.6, 0.9} {
			for _, tc := range allFuncs {
				requireTable(t, mustTable(t, tc.fn, names1, names1, theta, threads), tc.fn, theta, names1, names1, true)
				requireTable(t, mustTable(t, tc.fn, names1, names2, theta, threads), tc.fn, theta, names1, names2, false)
			}
			requireTable(t, mustTable(t, asymmetric, names1, names1, theta, threads), asymmetric, theta, names1, names1, false)
			requireTable(t, mustTable(t, nan, names1, names2, theta, threads), nan, theta, names1, names2, false)
		}
	}
}

// TestJaroWinklerPrefixMonotone property-checks that sharing a longer
// common prefix never reduces Jaro-Winkler relative to plain Jaro.
func TestJaroWinklerPrefixMonotone(t *testing.T) {
	check := func(a, b string) bool {
		return JaroWinkler(a, b) >= Jaro(a, b)-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEditDistanceTriangleish property-checks a weak triangle-style bound
// on the underlying distance: d(a,c) ≤ d(a,b) + d(b,c), expressed through
// the normalized similarity on equal-length inputs.
func TestEditDistanceTriangle(t *testing.T) {
	d := func(a, b string) int {
		ra, rb := []rune(a), []rune(b)
		return levenshtein(ra, rb)
	}
	check := func(a, b, c string) bool {
		return d(a, c) <= d(a, b)+d(b, c)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
