// Package strsim provides the label similarity functions L(·) used by the
// FSimχ framework (paper §3.3): the indicator function L_I, normalized edit
// distance L_E, and Jaro-Winkler similarity L_J, plus a cached cross-graph
// label-pair table so that node-pair label similarity costs one array read.
//
// Every function in this package satisfies the well-definiteness constraint
// of Definition 4: L(a, b) = 1 if and only if a == b. All of them are pure,
// so they are safe to call from any number of goroutines.
package strsim

import (
	"math/bits"
	"unicode/utf8"
)

// Func scores the similarity of two label strings in [0, 1], with
// Func(a, b) == 1 iff a == b.
type Func func(a, b string) float64

// Indicator is L_I: 1 when the labels are identical, 0 otherwise.
func Indicator(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// maxShort is the longest input the byte paths of NormalizedEditDistance
// and Jaro take: one bit of a uint64 match mask per byte. Labels are short
// ASCII words in practice; anything else falls back to the rune paths,
// which give the same results for the inputs both accept.
const maxShort = 64

// shortASCII reports whether s is ASCII of at most maxShort bytes, so that
// its bytes are its runes.
func shortASCII(s string) bool {
	if len(s) > maxShort {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// NormalizedEditDistance is L_E: 1 − lev(a, b) / max(|a|, |b|), computed
// over runes. Two empty strings score 1.
func NormalizedEditDistance(a, b string) float64 {
	if a == b {
		return 1
	}
	var dist, maxLen int
	if shortASCII(a) && shortASCII(b) {
		dist, maxLen = levenshteinShort(a, b), max(len(a), len(b))
	} else {
		ra, rb := []rune(a), []rune(b)
		dist, maxLen = levenshtein(ra, rb), max(len(ra), len(rb))
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(dist)/float64(maxLen)
}

// levenshtein computes the edit distance with a rolling single-row DP.
func levenshtein(a, b []rune) int {
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

// levenshteinShort is levenshtein over the bytes of two shortASCII strings,
// with the DP row on the stack.
func levenshteinShort(a, b string) int {
	var row [maxShort + 1]int
	for j := 0; j <= len(b); j++ {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			best := prev
			if a[i-1] != b[j-1] {
				best++
			}
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

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	if shortASCII(a) && shortASCII(b) {
		return jaroShort(a, b)
	}
	return jaroRunes([]rune(a), []rune(b))
}

// jaroWindow is the Jaro match distance: characters match only within
// max(la, lb)/2 − 1 positions of each other.
func jaroWindow(la, lb int) int {
	return max(max(la, lb)/2-1, 0)
}

// jaroScore combines the match and transposition counts into the Jaro
// similarity; both paths share it so their arithmetic is the same.
func jaroScore(matches, transpositions, la, lb int) float64 {
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// jaroRunes is Jaro over rune slices.
func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	window := jaroWindow(la, lb)
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(i-window, 0)
		hi := min(i+window+1, lb)
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
	return jaroScore(matches, transpositions, la, lb)
}

// jaroShort is jaroRunes over the bytes of two shortASCII strings, with the
// matched flags held as bits of one uint64 per side.
func jaroShort(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := jaroWindow(la, lb)
	var aMatched, bMatched uint64
	matches := 0
	for i := 0; i < la; i++ {
		c := a[i]
		hi := min(i+window+1, lb)
		for j := max(i-window, 0); j < hi; j++ {
			// j&63 == j (lb ≤ 64); the mask spares the shift its
			// out-of-range check.
			if b[j] != c || bMatched&(1<<(j&63)) != 0 {
				continue
			}
			aMatched |= 1 << (i & 63)
			bMatched |= 1 << (j & 63)
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Both masks hold matches bits; pair them off in order.
	transpositions := 0
	for aMatched != 0 {
		if a[bits.TrailingZeros64(aMatched)] != b[bits.TrailingZeros64(bMatched)] {
			transpositions++
		}
		aMatched &= aMatched - 1
		bMatched &= bMatched - 1
	}
	return jaroScore(matches, transpositions, la, lb)
}

// JaroWinkler is L_J: Jaro similarity boosted by common-prefix length
// (up to 4 runes) with the standard scaling factor p = 0.1.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
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

// ByName returns the named similarity function: "indicator", "edit", or
// "jaro-winkler" (aliases "jw", "jarowinkler"). It returns nil for unknown
// names.
func ByName(name string) Func {
	switch name {
	case "indicator", "I":
		return Indicator
	case "edit", "E", "editdistance":
		return NormalizedEditDistance
	case "jaro-winkler", "jw", "jarowinkler", "J":
		return JaroWinkler
	}
	return nil
}
