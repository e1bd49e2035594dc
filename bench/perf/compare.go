package perf

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of a comparison, after the usual rules for measuring on a small,
// shared host: a gain needs the change to win at least nine tenths of the pairs
// and its median to differ from the parent's by more than the parent's own
// quartile spread; a regression is a median worse by more than the
// metric's bound; a metric whose run-to-run spread exceeds its bound is
// unresolved unless every run of the change beats every run of the parent.
const (
	Improved   = "improved"
	NoChange   = "no change"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Side summarizes one side's runs of a metric.
type Side struct {
	Median, Q1, Q3 float64
}

// Spread is the quartile distance as a share of the median.
func (s Side) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Quartiles returns the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func Quartiles(values []float64) Side {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Side{}
	}
	if n == 1 {
		return Side{Median: s[0], Q1: s[0], Q3: s[0]}
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(math.Floor(h))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return Side{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}

// Row is one (workload, metric) line of a comparison.
type Row struct {
	Workload, Metric, Unit string
	A, B                   Side
	Wins, Pairs            int
	Verdict                string
}

// Judge compares the runs of a metric: a[i] and b[i] form pair i. bound is
// the metric's regression bound (0 for a per-layer metric, which can be
// reported improved or regressed only by the pair rule). The returned row
// names no workload or metric.
func Judge(a, b []float64, better string, bound float64) Row {
	sa, sb := Quartiles(a), Quartiles(b)
	sign := 1.0 // positive deltas are improvements
	if better == "lower" {
		sign = -1
	}
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	gain := sign * (sb.Median - sa.Median)
	parentIQR := sa.Q3 - sa.Q1
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	ninety := func(k int) bool { return pairs > 0 && float64(k) >= 0.9*float64(pairs) }

	var verdict string
	switch {
	case ninety(wins) && gain > parentIQR:
		verdict = Improved
	case bound > 0 && math.Max(sa.Spread(), sb.Spread()) > bound:
		verdict = Unresolved
		if allBetter {
			verdict = Improved
		}
	case bound > 0 && -gain > bound*math.Abs(sa.Median):
		verdict = Regressed
	case bound == 0 && ninety(losses) && -gain > parentIQR:
		verdict = Regressed
	default:
		verdict = NoChange
	}
	return Row{A: sa, B: sb, Wins: wins, Pairs: pairs, Verdict: verdict}
}

// Compare lines up two sets of run files — pair i is a[i] against b[i] —
// and judges every (workload, metric) that both sides measured and the
// benchmark declares.
func Compare(a, b []*RunFile, bench *Benchmark) []Row {
	specs := bench.Specs()
	collect := func(runs []*RunFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, f := range runs {
			for _, r := range f.Workloads {
				if out[r.Workload] == nil {
					out[r.Workload] = map[string][]float64{}
				}
				for name, m := range r.Metrics {
					out[r.Workload][name] = append(out[r.Workload][name], m.Value)
				}
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var rows []Row
	for _, w := range sortedKeys(va) {
		for _, name := range sortedKeys(va[w]) {
			spec, declared := specs[name]
			xb := vb[w][name]
			if !declared || len(xb) == 0 {
				continue
			}
			row := Judge(va[w][name], xb, spec.Better, spec.Bound)
			row.Workload, row.Metric, row.Unit = w, name, spec.Unit
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintRows writes the comparison table, end-to-end metrics first.
func PrintRows(w io.Writer, rows []Row, bench *Benchmark) {
	e2e := map[string]bool{}
	for _, s := range bench.EndToEnd {
		e2e[s.Name] = true
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return e2e[rows[i].Metric] && !e2e[rows[j].Metric]
	})
	fmt.Fprintf(w, "%-12s %-32s %-9s %-30s %-30s %-6s %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "wins", "verdict")
	side := func(s Side) string {
		return fmt.Sprintf("%s [%s, %s]", formatValue(s.Median), formatValue(s.Q1), formatValue(s.Q3))
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-32s %-9s %-30s %-30s %-6s %s\n", r.Workload, r.Metric, r.Unit, side(r.A), side(r.B),
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
}
