package perf

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := Quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles %+v, want 2.75 5.5 8.25", s)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// Same distribution, pairs interleaved: no change.
	shuffled := []float64{99.9, 100.3, 100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name    string
		a, b    []float64
		better  string
		bound   float64
		verdict string
	}{
		{"faster by 20%", base, scale(base, 0.8), "lower", 0.05, Improved},
		{"same runs", base, shuffled, "lower", 0.05, NoChange},
		{"slower by 10%", base, scale(base, 1.1), "lower", 0.05, Regressed},
		{"slower within bound", base, scale(base, 1.03), "lower", 0.05, NoChange},
		{"throughput up", base, scale(base, 1.2), "higher", 0.05, Improved},
		{"throughput down", base, scale(base, 0.85), "higher", 0.05, Regressed},
		{"spread wider than bound", wide, scale(wide, 1.02), "lower", 0.05, Unresolved},
		{"wide but every run better", wide, scale(wide, 0.3), "lower", 0.05, Improved},
		{"per-layer count unchanged", base, base, "lower", 0, NoChange},
		{"per-layer regression", base, scale(base, 1.5), "lower", 0, Regressed},
	}
	for _, c := range cases {
		if v := Judge(c.a, c.b, c.better, c.bound).Verdict; v != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, v, c.verdict)
		}
	}
}

func TestCompareRunSets(t *testing.T) {
	run := func(p50 float64) *RunFile {
		r := newReport("serve-hot")
		r.set("p50_ms", p50, "ms")
		r.set("undeclared", 1, "count")
		return &RunFile{Workloads: []*Report{r}}
	}
	var a, b []*RunFile
	for i := 0; i < 10; i++ {
		jitter := 0.01 * math.Sin(float64(i))
		a = append(a, run(1+jitter))
		b = append(b, run(0.7+jitter))
	}
	bench := &Benchmark{EndToEnd: []MetricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	rows := Compare(a, b, bench)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want only the declared metric", len(rows))
	}
	if r := rows[0]; r.Verdict != Improved || r.Wins != 10 || r.Pairs != 10 {
		t.Errorf("row %+v, want improved with 10/10 wins", r)
	}
}
