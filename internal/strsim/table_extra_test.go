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

// requireTable fails unless every cell of tab has exactly the bits of
// fn(names1[i], names2[j]).
func requireTable(t *testing.T, tab *Table, fn Func, names1, names2 []string) {
	t.Helper()
	for i, a := range names1 {
		for j, b := range names2 {
			if got, want := tab.Sim(i, j), fn(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("table[%d][%d] = %v, fn(%q, %q) = %v", i, j, got, a, b, want)
			}
		}
	}
}

// TestTableMatchesFunction property-checks the cache: every table entry
// has the bits of a direct function evaluation, whether the table is
// filled on one goroutine or fanned out over several. A self vocabulary
// (the same slice on both sides) under a built-in is stored as a triangle;
// two vocabularies, or a custom function — here an asymmetric one — keep
// the square.
func TestTableMatchesFunction(t *testing.T) {
	names1, names2 := tableVocabularies()
	asymmetric := func(a, b string) float64 {
		if a == b {
			return 1
		}
		return float64(len(a)) / float64(len(a)+2*len(b)+1)
	}
	for _, threads := range []int{1, 2, 8} {
		for _, tc := range allFuncs {
			self := NewTable(tc.fn, names1, names1, threads)
			if n := len(names1); !self.sym || len(self.sims) != n*(n+1)/2 {
				t.Fatalf("%s: self table sym=%v with %d cells, want a triangle of %d", tc.name, self.sym, len(self.sims), n*(n+1)/2)
			}
			requireTable(t, self, tc.fn, names1, names1)

			cross := NewTable(tc.fn, names1, names2, threads)
			if cross.sym || len(cross.sims) != len(names1)*len(names2) {
				t.Fatalf("%s: cross table sym=%v with %d cells", tc.name, cross.sym, len(cross.sims))
			}
			requireTable(t, cross, tc.fn, names1, names2)
		}
		custom := NewTable(asymmetric, names1, names1, threads)
		if custom.sym || len(custom.sims) != len(names1)*len(names1) {
			t.Fatalf("custom self table sym=%v with %d cells, want the square", custom.sym, len(custom.sims))
		}
		requireTable(t, custom, asymmetric, names1, names1)
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
