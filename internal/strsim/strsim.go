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
		var pb bytePositions
		pb.set(b)
		return jaroShort(a, b, &pb)
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

// bytePositions is a shortASCII string prepared for the byte-path Jaro
// matcher: entry c holds one bit per position at which byte c occurs. The
// label table prepares each row's label once and scores the whole row
// against it.
type bytePositions [utf8.RuneSelf]uint64

// set prepares s, which must be shortASCII, on an all-zero p.
func (p *bytePositions) set(s string) {
	for j := 0; j < len(s); j++ {
		p[s[j]&(utf8.RuneSelf-1)] |= 1 << (j & 63)
	}
}

// clear returns p, prepared for s, to all zeros.
func (p *bytePositions) clear(s string) {
	for j := 0; j < len(s); j++ {
		p[s[j]&(utf8.RuneSelf-1)] = 0
	}
}

// jaroShort is jaroRunes over the bytes of two shortASCII strings, with b
// prepared in pb and the matched flags held as bits of one uint64 per
// side. It is the one byte-path matcher: Jaro, JaroWinkler and the label
// table's fill all reach it.
//
// For a[i], jaroRunes takes the lowest unmatched j in the window
// [i−window, i+window] with b[j] == a[i]; that is the lowest set bit of
// pb[a[i]] outside bMatched, below (the positions under the window) and
// above it. Both window edges move up one position per i.
func jaroShort(a, b string, pb *bytePositions) float64 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := jaroWindow(la, lb)
	var aMatched, bMatched, below uint64
	upTo := uint64(1)<<((window+1)&63) - 1 // positions ≤ i+window; window < 32
	matches := 0
	for i := 0; i < la; i++ {
		if free := pb[a[i]&(utf8.RuneSelf-1)] & upTo &^ (bMatched | below); free != 0 {
			aMatched |= 1 << (i & 63)
			bMatched |= free & -free
			matches++
		}
		upTo = upTo<<1 | 1
		if i >= window {
			below = below<<1 | 1
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
	return winkler(Jaro(a, b), a, b)
}

// winkler boosts j, the Jaro similarity of a and b, by their common
// prefix.
func winkler(j float64, a, b string) float64 {
	if j == 1 {
		return 1
	}
	prefix := 0
	for prefix < 4 && a != "" && b != "" {
		ca, sizeA := rune(a[0]), 1
		if ca >= utf8.RuneSelf {
			ca, sizeA = utf8.DecodeRuneInString(a)
		}
		cb, sizeB := rune(b[0]), 1
		if cb >= utf8.RuneSelf {
			cb, sizeB = utf8.DecodeRuneInString(b)
		}
		if ca != cb {
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

// builtins registers the package's three label functions under the wire
// ids that snapshots persist (they never change). Each is symmetric:
// f(a, b) and f(b, a) have the same bits, so NewTable stores a self table
// of a built-in as a triangle.
//
// Why each is exactly symmetric:
//   - Indicator compares a == b.
//   - NormalizedEditDistance divides the integer lev(a, b) = lev(b, a) by
//     max(|a|, |b|); both paths (bytes or runes) are chosen by a symmetric
//     test.
//   - JaroWinkler: the path test, the window max(la, lb)/2 − 1 and the
//     prefix boost are symmetric, so it comes down to the matching. Only
//     equal characters match, so take one character c, at positions
//     p1 < p2 < … of a and q1 < q2 < … of b. Scanning a, the greedy match
//     gives each p the lowest unmatched q with |p − q| ≤ w. As p grows,
//     p − w grows, so a q skipped for lying below p − w never matches
//     later, and matched q's are taken in ascending order: the scan is a
//     two-pointer merge that skips q if q < p − w, skips p if p < q − w,
//     and matches (p, q) otherwise. The two skip conditions exclude each
//     other, so scanning b gives the same merge with the roles swapped,
//     and the same matched pairs. Hence the matched position sets of a
//     and b, `matches`, and the transpositions (the k-th matched position
//     of a against the k-th of b, compared for inequality) are the same
//     both ways, and jaroScore's m/la + m/lb is a commutative IEEE sum.
var builtins = []struct {
	id uint8
	fn Func
}{
	{1, JaroWinkler},
	{2, Indicator},
	{3, NormalizedEditDistance},
}

// builtinIndex returns fn's position in builtins, or -1 for any other
// function.
func builtinIndex(fn Func) int {
	for i, b := range builtins {
		if sameFunc(fn, b.fn) {
			return i
		}
	}
	return -1
}

// WireID returns the stable id under which snapshots persist fn, and false
// when fn is not one of JaroWinkler, Indicator or NormalizedEditDistance.
func WireID(fn Func) (uint8, bool) {
	if i := builtinIndex(fn); i >= 0 {
		return builtins[i].id, true
	}
	return 0, false
}

// ByWireID returns the built-in label function persisted as id, or nil.
func ByWireID(id uint8) Func {
	for _, b := range builtins {
		if b.id == id {
			return b.fn
		}
	}
	return nil
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
