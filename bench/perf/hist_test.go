package perf

import (
	"math"
	"math/rand"
	"testing"
)

// The quantiles of 1..N are known exactly: the nearest-rank q-quantile is
// ⌈q·N⌉. The histogram must report each within its 1% bucket error, in any
// recording order, and merging per-caller histograms must not change them.
func TestHistQuantilesOfKnownDistribution(t *testing.T) {
	const n = 100000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	whole, a, b := NewHist(), NewHist(), NewHist()
	for i, p := range perm {
		v := float64(p + 1)
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	for _, h := range []*Hist{whole, a} {
		if h.Count() != n {
			t.Fatalf("count %d, want %d", h.Count(), n)
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := math.Ceil(q * n)
			got := h.Quantile(q)
			if math.Abs(got-exact) > 0.01*exact {
				t.Errorf("q=%v: got %v, exact %v (more than 1%% off)", q, got, exact)
			}
			// Samples beyond the quantile's bucket are exactly the values
			// above its upper edge, at most n−⌈q·n⌉ and short of it by at
			// most the bucket's own population (≤ 1% of the quantile).
			beyond := float64(h.Beyond(q))
			if max := n - exact; beyond > max || beyond < max-0.011*exact-1 {
				t.Errorf("q=%v: beyond %v, want within [%v, %v]", q, beyond, max-0.011*exact-1, max)
			}
		}
	}
}

func TestHistEmptyAndTiny(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.5) != 0 || h.Beyond(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(0)
	h.Add(7)
	if got := h.Quantile(1); got != 7 {
		t.Errorf("max quantile %v, want the exact max 7", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("median %v, want the exact min 0", got)
	}
}
