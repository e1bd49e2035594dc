package strsim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestTableMatchesFunction property-checks the cache: every table entry
// equals a direct function evaluation, whether the table is filled on one
// goroutine or fanned out over several (the vocabularies are large enough
// for NewTable to split them into chunks).
func TestTableMatchesFunction(t *testing.T) {
	names1 := []string{"alpha", "beta", "gamma", ""}
	names2 := []string{"alpha", "delta", "be", "gamma"}
	for i := 0; i < 90; i++ {
		names1 = append(names1, fmt.Sprintf("label-%d", i*7))
		names2 = append(names2, fmt.Sprintf("label-%d", i*5))
	}
	for _, tc := range allFuncs {
		for _, threads := range []int{1, 2, 8} {
			tab := NewTable(tc.fn, names1, names2, threads)
			for i, a := range names1 {
				for j, b := range names2 {
					if tab.Sim(i, j) != tc.fn(a, b) {
						t.Fatalf("%s threads=%d: table[%d][%d] != fn(%q,%q)", tc.name, threads, i, j, a, b)
					}
				}
			}
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
