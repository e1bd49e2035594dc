package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Pearson(x, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect positive: %v", got)
	}
	if got := Pearson(x, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect negative: %v", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("zero variance vs varying: %v", got)
	}
	if got := Pearson([]float64{3, 3}, []float64{3, 3}); got != 1 {
		t.Fatalf("identical constants should correlate 1: %v", got)
	}
	if got := Pearson([]float64{3, 3}, []float64{4, 4}); got != 0 {
		t.Fatalf("different constants: %v", got)
	}
	if got := Pearson(nil, nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := Pearson(x, x[:2]); got != 0 {
		t.Fatalf("length mismatch: %v", got)
	}
}

// TestPearsonProperties property-checks range, symmetry, and invariance
// under positive affine transforms.
func TestPearsonProperties(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		r := Pearson(x, y)
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		if math.Abs(r-Pearson(y, x)) > 1e-9 {
			return false
		}
		// Affine transform of x with positive slope preserves r.
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3*x[i] + 7
		}
		return math.Abs(r-Pearson(x2, y)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDCGAndNDCG(t *testing.T) {
	// DCG of [3,2,1] = 3/log2(2) + 2/log2(3) + 1/log2(4).
	want := 3/math.Log2(2) + 2/math.Log2(3) + 1/math.Log2(4)
	if got := DCG([]float64{3, 2, 1}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DCG = %v, want %v", got, want)
	}
	if got := NDCG([]float64{3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ideal order should be 1, got %v", got)
	}
	if got := NDCG([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero NDCG = %v", got)
	}
	// Reversed order strictly below 1.
	if got := NDCG([]float64{1, 2, 3}); got >= 1 || got <= 0 {
		t.Fatalf("reversed NDCG = %v", got)
	}
}

func TestF1(t *testing.T) {
	if got := F1(1, 1); got != 1 {
		t.Fatalf("F1(1,1) = %v", got)
	}
	if got := F1(0, 0); got != 0 {
		t.Fatalf("F1(0,0) = %v", got)
	}
	if got := F1(0.5, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1(0.5,1) = %v", got)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.3, 0.9, 0.9, 0.1}
	top := TopK(scores, 3)
	if len(top) != 3 || top[0].Index != 1 || top[1].Index != 2 || top[2].Index != 0 {
		t.Fatalf("TopK = %v", top)
	}
	if got := TopK(scores, 10); len(got) != 4 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestArgMaxSet(t *testing.T) {
	if got := ArgMaxSet([]float64{1, 3, 3, 2}); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ArgMaxSet = %v", got)
	}
	if got := ArgMaxSet(nil); got != nil {
		t.Fatalf("empty ArgMaxSet = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{7}, 7, 7, 7},
		{[]float64{5, 1, 3, 2, 4}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 2, 3, 4},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Fatalf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
