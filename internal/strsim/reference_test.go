package strsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// The reference implementations below are the rune-slice forms of L_E, Jaro
// and L_J that the byte paths replaced for short ASCII inputs, kept verbatim
// so the tests can demand bit-identical scores from the production code.

func refNormalizedEditDistance(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(refLevenshtein(ra, rb))/float64(maxLen)
}

func refLevenshtein(a, b []rune) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost
			if d := row[j] + 1; d < best { // deletion
				best = d
			}
			if d := row[j-1] + 1; d < best { // insertion
				best = d
			}
			row[j] = best
			prev = cur
		}
	}
	return row[len(b)]
}

func refJaro(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatched[j] || ra[i] != rb[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between the matched sequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	if j == 1 {
		return 1
	}
	prefix := 0
	for prefix < 4 {
		ca, sizeA := utf8.DecodeRuneInString(a)
		cb, sizeB := utf8.DecodeRuneInString(b)
		if sizeA == 0 || sizeB == 0 || ca != cb {
			break
		}
		a, b = a[sizeA:], b[sizeB:]
		prefix++
	}
	const p = 0.1
	s := j + float64(prefix)*p*(1-j)
	if s >= 1 { // guard: only identical strings may score 1
		return 1 - 1e-12
	}
	return s
}

// refPairs pairs each production function with its reference.
var refPairs = []struct {
	name     string
	fn, want Func
}{
	{"edit", NormalizedEditDistance, refNormalizedEditDistance},
	{"jaro", Jaro, refJaro},
	{"jaro-winkler", JaroWinkler, refJaroWinkler},
}

// requireReference fails unless every production function scores (a, b)
// with exactly the reference's bits.
func requireReference(t *testing.T, a, b string) {
	t.Helper()
	for _, p := range refPairs {
		if got, want := p.fn(a, b), p.want(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%q, %q) = %v, reference %v", p.name, a, b, got, want)
		}
	}
}

// TestLabelFuncsMatchReference compares the label functions with their
// references on every pair of strings of length ≤ 3 over an alphabet that
// mixes one- and multi-byte runes, so both the byte and the rune paths and
// every mix of the two are exercised.
func TestLabelFuncsMatchReference(t *testing.T) {
	all := words([]string{"a", "b", "é", "世"}, 3)
	for _, a := range all {
		for _, b := range all {
			requireReference(t, a, b)
		}
	}
}

// FuzzLabelFuncs compares the label functions with their references on
// arbitrary byte strings, including invalid UTF-8 and inputs on both sides
// of the 64-byte limit of the byte paths.
func FuzzLabelFuncs(f *testing.F) {
	long := strings.Repeat("abcdefgh", 8) // exactly 64 bytes
	seeds := [][2]string{
		{"", ""},
		{"", "a"},
		{"MARTHA", "MARHTA"},
		{"DIXON", "DICKSONX"},
		{"kitten", "sitting"},
		{"日本語", "日本"},
		{"caf\xe9", "cafe"},      // invalid UTF-8
		{"\xff\xfe", "\xfe\xff"}, // invalid bytes decode to the same rune
		{long, long[1:] + "a"},   // at the limit
		{long + "x", long + "y"}, // one byte past it
		{long + long, long},      // long against short
		{"person", "persona"},
		{"aaaa", "aaaab"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		requireReference(t, a, b)
		requireSymmetric(t, a, b)
	})
}

// requireSymmetric fails unless every built-in scores (a, b) and (b, a)
// with the same bits, which is what lets NewTable store a self table as a
// triangle.
func requireSymmetric(t *testing.T, a, b string) {
	t.Helper()
	for _, tc := range allFuncs {
		if ab, ba := tc.fn(a, b), tc.fn(b, a); math.Float64bits(ab) != math.Float64bits(ba) {
			t.Fatalf("%s(%q, %q) = %v but %s(%q, %q) = %v", tc.name, a, b, ab, tc.name, b, a, ba)
		}
	}
}

// words returns every string of up to n symbols from alphabet.
func words(alphabet []string, n int) []string {
	out := []string{""}
	for k, level := 0, []string{""}; k < n; k++ {
		var next []string
		for _, w := range level {
			for _, c := range alphabet {
				next = append(next, w+c)
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}

// TestLabelFuncsSymmetric checks f(a, b) and f(b, a) bit for bit for the
// three built-ins: exhaustively over every string of up to 6 bytes on
// {a, b, c} (the byte paths), over strings of up to 3 runes mixing one-
// and multi-byte runes (the rune paths), on both sides of the 64-byte
// limit of the byte paths, and on random strings.
func TestLabelFuncsSymmetric(t *testing.T) {
	check := func(a, b string) bool {
		requireSymmetric(t, a, b)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	short := words([]string{"a", "b", "c"}, 6)
	for i, a := range short {
		for _, b := range short[:i] {
			requireSymmetric(t, a, b)
		}
	}
	runes := words([]string{"a", "é", "世"}, 3)
	for _, a := range runes {
		for _, b := range runes {
			requireSymmetric(t, a, b)
		}
	}
	long := strings.Repeat("abcabcab", 8) // 64 bytes
	edges := []string{long, long[1:], long + "c", long[:32] + "é" + long[32:60], "abc", "cab", ""}
	for _, a := range edges {
		for _, b := range edges {
			requireSymmetric(t, a, b)
		}
	}
}
