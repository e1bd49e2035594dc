// Package dataset synthesizes the evaluation graphs of the paper's §5.1.
//
// The paper evaluates on eight public datasets (Table 4). Those downloads
// are unavailable in this offline reproduction, so each dataset is replaced
// by a seeded synthetic graph matched to its published statistics — node
// and edge counts, label vocabulary size, average degree and maximum
// out-/in-degrees — optionally scaled down by an integer factor so the full
// experiment suite fits a small machine. The sensitivity and efficiency
// experiments measure relative behaviour across configurations, which
// depends on exactly these distributional properties.
//
// The package also provides the error-injection and densification
// workloads of Fig 5 and Fig 9(b), and random query extraction for the
// pattern-matching case study.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"fsim/internal/graph"
)

// Spec describes a synthetic graph: the target statistics of Table 4.
type Spec struct {
	Name   string
	Nodes  int
	Edges  int
	Labels int
	MaxOut int
	MaxIn  int
	// OutExp/InExp are the power-law exponents of the degree sequences;
	// zero means the default 1.0.
	OutExp, InExp float64
	// LabelExp skews the label distribution (Zipf); zero means 0.8.
	LabelExp float64
	Seed     int64
}

// table4 holds the published statistics of the paper's Table 4, plus the
// default down-scale factor used by this reproduction.
var table4 = []struct {
	name                                string
	edges, nodes, labels, maxOut, maxIn int
	defaultScale                        int
}{
	{"Yeast", 7182, 2361, 13, 60, 47, 1},
	{"Cora", 91500, 23166, 70, 104, 376, 10},
	{"Wiki", 119882, 4592, 120, 294, 1551, 2},
	{"JDK", 150985, 6434, 41, 375, 32507, 3},
	{"NELL", 154213, 75492, 269, 1011, 1909, 40},
	{"GP", 298564, 144879, 8, 191, 18553, 40},
	{"Amazon", 1788725, 554790, 82, 5, 549, 100},
	{"ACMCit", 9671895, 1462947, 72000, 809, 938039, 400},
}

// DatasetNames lists the Table 4 dataset names in paper order.
func DatasetNames() []string {
	names := make([]string, len(table4))
	for i, d := range table4 {
		names[i] = d.name
	}
	return names
}

// PaperSpec returns the synthetic stand-in spec for a Table 4 dataset,
// scaled down by the given factor (≤ 0 selects the default factor chosen
// for a 1-core machine). Scaling divides nodes, edges and labels; maximum
// degrees are clamped to the scaled node count.
func PaperSpec(name string, scale int) (Spec, error) {
	for i, d := range table4 {
		if d.name != name {
			continue
		}
		if scale <= 0 {
			scale = d.defaultScale
		}
		n := d.nodes / scale
		if n < 16 {
			n = 16
		}
		m := d.edges / scale
		// The label vocabulary is NOT divided by the scale factor: the
		// fraction of same-label node pairs (which drives the θ=1
		// candidate density, Fig 7/8) is scale-invariant only when |Σ| is
		// preserved. It is clamped so each label can still occur.
		labels := d.labels
		if labels > n/4 {
			labels = n / 4
		}
		if labels < 8 {
			labels = 8
		}
		// Maximum degrees scale with the graph so hubs keep their share of
		// the edge mass, clamped into [minMax, n-1] where minMax keeps the
		// degree sequence feasible (n·max must cover the edge count).
		minMax := m/n + 2
		clamp := func(x int) int {
			x /= scale
			if x > n-1 {
				x = n - 1
			}
			if x < minMax {
				x = minMax
			}
			return x
		}
		return Spec{
			Name:   d.name,
			Nodes:  n,
			Edges:  m,
			Labels: labels,
			MaxOut: clamp(d.maxOut),
			MaxIn:  clamp(d.maxIn),
			Seed:   int64(1000 + i),
		}, nil
	}
	return Spec{}, fmt.Errorf("dataset: unknown Table 4 dataset %q", name)
}

// PowerLaw returns a spec for a free-form synthetic power-law graph, the
// scaling experiment's knob set: node count, edge count, label vocabulary
// and a single exponent alpha applied to both degree sequences (≤ 0
// selects the default 1.0). Maximum degrees are derived from the size —
// roughly n^0.75 hubs, clamped so the degree sequences stay feasible —
// matching the hub share the Table 4 stand-ins exhibit. Infeasible inputs
// are clamped rather than rejected: nodes below 2 become 2, labels below
// 1 become 1, and Generate already saturates an edge target the degree
// caps cannot carry.
func PowerLaw(nodes, edges, labels int, alpha float64, seed int64) Spec {
	if nodes < 2 {
		nodes = 2
	}
	if labels < 1 {
		labels = 1
	}
	if edges < 0 {
		edges = 0
	}
	if alpha <= 0 {
		alpha = 1.0
	}
	maxDeg := int(math.Pow(float64(nodes), 0.75))
	if minMax := edges/nodes + 2; maxDeg < minMax {
		maxDeg = minMax
	}
	if maxDeg > nodes-1 {
		maxDeg = nodes - 1
	}
	return Spec{
		Name:   fmt.Sprintf("powerlaw-n%d-m%d", nodes, edges),
		Nodes:  nodes,
		Edges:  edges,
		Labels: labels,
		MaxOut: maxDeg,
		MaxIn:  maxDeg,
		OutExp: alpha,
		InExp:  alpha,
		Seed:   seed,
	}
}

// MustPaperSpec is PaperSpec that panics on unknown names.
func MustPaperSpec(name string, scale int) Spec {
	s, err := PaperSpec(name, scale)
	if err != nil {
		panic(err)
	}
	return s
}

// Generate builds the synthetic graph: power-law out- and in-degree
// sequences with the spec's sums and maxima, connected by random stub
// matching (duplicate edges and self-loops dropped), and Zipf-distributed
// labels. Generation is deterministic in the seed.
func (s Spec) Generate() *graph.Graph {
	rng := rand.New(rand.NewSource(s.Seed))
	outExp := s.OutExp
	if outExp == 0 {
		outExp = 1.0
	}
	inExp := s.InExp
	if inExp == 0 {
		inExp = 1.0
	}
	labelExp := s.LabelExp
	if labelExp == 0 {
		labelExp = 0.8
	}

	outDeg := degreeSequence(rng, s.Nodes, s.Edges, s.MaxOut, outExp)
	inDeg := degreeSequence(rng, s.Nodes, s.Edges, s.MaxIn, inExp)

	b := graph.NewBuilder()
	names := labelNames(rng, s.Labels)
	labels := zipfLabels(rng, s.Nodes, s.Labels, labelExp)
	for _, l := range labels {
		b.AddNode(names[l])
	}

	// Stub matching: a pool of edge targets with node v appearing
	// inDeg[v] times, shuffled; sources consume the pool in order.
	pool := make([]graph.NodeID, 0, s.Edges)
	for v, d := range inDeg {
		for i := 0; i < d; i++ {
			pool = append(pool, graph.NodeID(v))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pos := 0
	for u, d := range outDeg {
		for i := 0; i < d && pos < len(pool); i++ {
			v := pool[pos]
			pos++
			if v == graph.NodeID(u) { // drop self-loop
				continue
			}
			b.MustAddEdge(graph.NodeID(u), v)
		}
	}
	return b.Build()
}

// degreeSequence produces n non-negative integers with sum ≈ total, maximum
// ≈ max, following an (i+1)^-exp rank-size law, randomly permuted across
// node ids.
func degreeSequence(rng *rand.Rand, n, total, max int, exp float64) []int {
	if max < 1 {
		max = 1
	}
	if total > n*max {
		total = n * max // infeasible target: saturate instead of spinning
	}
	weights := make([]float64, n)
	sumW := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -exp)
		sumW += weights[i]
	}
	deg := make([]int, n)
	assigned := 0
	for i := range weights {
		d := int(math.Round(weights[i] / sumW * float64(total)))
		if d > max {
			d = max
		}
		deg[i] = d
		assigned += d
	}
	// Fix the sum by sprinkling the remainder uniformly (respecting max).
	for assigned < total {
		i := rng.Intn(n)
		if deg[i] < max {
			deg[i]++
			assigned++
		}
	}
	for assigned > total {
		i := rng.Intn(n)
		if deg[i] > 0 {
			deg[i]--
			assigned--
		}
	}
	// Force the head to hit the target maximum so D+/D− match the spec.
	if n > 0 && max <= total {
		deg[0] = max
	}
	rng.Shuffle(n, func(i, j int) { deg[i], deg[j] = deg[j], deg[i] })
	return deg
}

// labelNames fabricates distinct word-like label strings. Real datasets
// carry heterogeneous names ("Person", "comic", item categories); a shared
// synthetic prefix like "L12"/"L37" would make every cross-label pair look
// similar to string measures such as Jaro-Winkler and distort the
// sensitivity experiments, so names are random letter strings instead.
func labelNames(rng *rand.Rand, labels int) []string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	seen := map[string]bool{}
	names := make([]string, labels)
	for i := range names {
		for {
			n := 4 + rng.Intn(5)
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = alphabet[rng.Intn(len(alphabet))]
			}
			name := string(buf)
			if !seen[name] {
				seen[name] = true
				names[i] = name
				break
			}
		}
	}
	return names
}

// zipfLabels assigns each node a label id in [0, labels) with Zipf skew.
func zipfLabels(rng *rand.Rand, n, labels int, exp float64) []int {
	if labels < 1 {
		labels = 1
	}
	cum := make([]float64, labels)
	sum := 0.0
	for i := 0; i < labels; i++ {
		sum += math.Pow(float64(i+1), -exp)
		cum[i] = sum
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		r := rng.Float64() * sum
		lo, hi := 0, labels-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	// Guarantee every label occurs at least once when possible.
	if n >= labels {
		perm := rng.Perm(n)
		for l := 0; l < labels; l++ {
			out[perm[l]] = l
		}
	}
	return out
}

// RandomGraph returns a uniform random directed graph: n nodes, m distinct
// edges, labels drawn uniformly from a vocabulary of the given size.
// Intended for tests and property checks.
func RandomGraph(seed int64, n, m, labels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		b.MustAddEdge(u, v)
	}
	return b.Build()
}
