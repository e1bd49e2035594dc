package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyBasic(t *testing.T) {
	edges := []Edge{{0, 0, 5}, {0, 1, 4}, {1, 0, 4}, {1, 1, 1}}
	picked, total := Greedy(edges)
	// Greedy takes (0,0)=5 then (1,1)=1 → 6 (optimum is 8; ≥ 1/2 of it).
	if total != 6 || len(picked) != 2 {
		t.Fatalf("greedy total = %v picked = %v", total, picked)
	}
}

func TestGreedyInjective(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var edges []Edge
		n1, n2 := 1+rng.Intn(6), 1+rng.Intn(6)
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, Edge{i, j, rng.Float64()})
				}
			}
		}
		picked, _ := Greedy(edges)
		usedL := map[int]bool{}
		usedR := map[int]bool{}
		for _, e := range picked {
			if usedL[e.I] || usedR[e.J] {
				return false
			}
			usedL[e.I] = true
			usedR[e.J] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyHalfApprox property-checks the classical guarantee: the greedy
// matching weight is at least half the exact optimum.
func TestGreedyHalfApprox(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := 1+rng.Intn(5), 1+rng.Intn(5)
		w := make([]float64, n1*n2)
		var edges []Edge
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				w[i*n2+j] = rng.Float64()
				edges = append(edges, Edge{i, j, w[i*n2+j]})
			}
		}
		_, greedy := Greedy(edges)
		_, opt := Hungarian(w, n1, n2, &Scratch{})
		return greedy >= opt/2-1e-9 && greedy <= opt+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyDenseMatchesGreedy property-checks that the dense hot path
// computes the same total as the generic edge-list greedy.
func TestGreedyDenseMatchesGreedy(t *testing.T) {
	scratch := NewScratch(8, 8)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := 1+rng.Intn(7), 1+rng.Intn(7)
		w := make([]float64, n1*n2)
		var edges []Edge
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				// Quantized weights exercise tie-breaking deterministically.
				x := float64(rng.Intn(8)) / 8
				w[i*n2+j] = x
				edges = append(edges, Edge{i, j, x})
			}
		}
		_, wantTotal := Greedy(edges)
		scratch.Grow(n1, n2)
		got, _ := GreedyDense(w, n1, n2, scratch)
		return math.Abs(got-wantTotal) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyZeroHeavyMatchesGreedy property-checks GreedyDense on the
// weight matrices the mapping operators actually see: mostly exact zeros
// (non-candidate pairs) with a few quantized, often tied, positive scores.
// GreedyDense leaves the zeros out of its sort, which must not change the
// total at all — it is compared with ==, not a tolerance, against the
// edge-list Greedy over every entry, zeros included.
func TestGreedyZeroHeavyMatchesGreedy(t *testing.T) {
	scratch := NewScratch(4, 4)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := 1+rng.Intn(12), 1+rng.Intn(12)
		w := make([]float64, n1*n2)
		edges := make([]Edge, 0, n1*n2)
		zeros := 0
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				x := 0.0
				if rng.Intn(20) == 0 { // ~5% positive, the rest exactly 0
					x = float64(1+rng.Intn(4)) / 7
				}
				if x == 0 {
					zeros++
				}
				w[i*n2+j] = x
				edges = append(edges, Edge{i, j, x})
			}
		}
		if 10*zeros < 9*n1*n2 {
			return true // fewer than 90% zeros: not the case under test
		}
		_, want := Greedy(edges)
		scratch.Grow(n1, n2)
		got, _ := GreedyDense(w, n1, n2, scratch)
		if got != want {
			t.Logf("seed %d (%d×%d): GreedyDense %v, Greedy %v", seed, n1, n2, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDenseMinW(t *testing.T) {
	scratch := NewScratch(4, 4)
	w := []float64{0.9, -1, -1, 0.8}
	total, count := GreedyDense(w, 2, 2, scratch)
	if math.Abs(total-1.7) > 1e-9 || count != 2 {
		t.Fatalf("total=%v count=%d", total, count)
	}
	// Single row fast path.
	total, count = GreedyDense([]float64{-1, 0.3, 0.7}, 1, 3, scratch)
	if total != 0.7 || count != 1 {
		t.Fatalf("fast path total=%v count=%d", total, count)
	}
	// All excluded.
	total, count = GreedyDense([]float64{-1, -1}, 1, 2, scratch)
	if total != 0 || count != 0 {
		t.Fatalf("excluded: total=%v count=%d", total, count)
	}
	// Zero weights add nothing and are not counted as matches: only the
	// positive entry (1, 2) is matched.
	total, count = GreedyDense([]float64{0, 0, 0, 0, 0, 0.5}, 2, 3, scratch)
	if total != 0.5 || count != 1 {
		t.Fatalf("zero weights: total=%v count=%d", total, count)
	}
	total, count = GreedyDense([]float64{0, 0, 0}, 1, 3, scratch)
	if total != 0 || count != 0 {
		t.Fatalf("all zero fast path: total=%v count=%d", total, count)
	}
}

func TestHungarianKnown(t *testing.T) {
	w := []float64{
		5, 4,
		4, 1,
	}
	assign, total := Hungarian(w, 2, 2, &Scratch{})
	if total != 8 {
		t.Fatalf("Hungarian total = %v, want 8", total)
	}
	if assign[0] != 1 || assign[1] != 0 {
		t.Fatalf("assignment = %v", assign)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More rows than columns: one row stays unmatched.
	w := []float64{1, 5, 3}
	assign, total := Hungarian(w, 3, 1, &Scratch{})
	if total != 5 {
		t.Fatalf("total = %v, want 5", total)
	}
	matched := 0
	for i, j := range assign {
		if j >= 0 {
			matched++
			if i != 1 {
				t.Fatalf("wrong row matched: %v", assign)
			}
		}
	}
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
}

// TestHungarianOptimal brute-forces small instances to verify optimality.
// One scratch serves every instance, so reuse across sizes is covered too.
func TestHungarianOptimal(t *testing.T) {
	sc := &Scratch{}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		w := make([]float64, n*n)
		for i := range w {
			w[i] = rng.Float64()
		}
		best := 0.0
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(i int, used int, sum float64)
		rec = func(i int, used int, sum float64) {
			if i == n {
				if sum > best {
					best = sum
				}
				return
			}
			for j := 0; j < n; j++ {
				if used&(1<<j) == 0 {
					rec(i+1, used|1<<j, sum+w[i*n+j])
				}
			}
		}
		rec(0, 0, 0)
		_, total := Hungarian(w, n, n, sc)
		return math.Abs(total-best) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHopcroftKarp(t *testing.T) {
	// Perfect matching exists: 0-0, 1-1.
	adj := [][]int{{0, 1}, {1}}
	if !HasPerfectMatching(adj, 2) {
		t.Fatal("perfect matching should exist")
	}
	// Both left nodes only reach column 0.
	adj = [][]int{{0}, {0}}
	if HasSaturatingMatching(adj, 2) {
		t.Fatal("saturating matching should not exist")
	}
	// Saturating (not perfect) into a larger right side.
	adj = [][]int{{0, 2}, {1}}
	if !HasSaturatingMatching(adj, 3) {
		t.Fatal("saturating matching should exist")
	}
	if HasPerfectMatching(adj, 3) {
		t.Fatal("perfect matching needs equal sides")
	}
}

// TestHopcroftKarpMatchesHungarian cross-checks maximum cardinality against
// the Hungarian optimum on 0/1 weights, reusing one scratch across wide
// and tall shapes.
func TestHopcroftKarpMatchesHungarian(t *testing.T) {
	sc := &Scratch{}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := 1+rng.Intn(5), 1+rng.Intn(5)
		adj := make([][]int, n1)
		w := make([]float64, n1*n2)
		for i := range adj {
			for j := 0; j < n2; j++ {
				if rng.Float64() < 0.5 {
					adj[i] = append(adj[i], j)
					w[i*n2+j] = 1
				}
			}
		}
		_, size := HopcroftKarp(adj, n2)
		_, total := Hungarian(w, n1, n2, sc)
		return math.Abs(float64(size)-total) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
