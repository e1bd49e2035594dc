package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"
	"unicode/utf8"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/stats"
	"fsim/internal/strsim"
)

// Config tunes an experiment run.
type Config struct {
	// Out receives the formatted rows; nil discards them.
	Out io.Writer
	// Quick shrinks the workloads (fewer queries, smaller graphs, coarser
	// sweeps) for use inside testing.B loops and smoke tests.
	Quick bool
	// Threads forwards to the engine (0 = GOMAXPROCS).
	Threads int
	// Seed offsets all generators; 0 keeps the defaults.
	Seed int64
	// JSONDir receives machine-readable artifacts (BENCH_delta.json);
	// "" means the working directory.
	JSONDir string
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// ExperimentFn runs one experiment end to end.
type ExperimentFn func(cfg Config) error

// Registry maps experiment ids ("table2", "fig4", ...) to their runners,
// in paper order.
func Registry() []struct {
	ID   string
	Desc string
	Run  ExperimentFn
} {
	return []struct {
		ID   string
		Desc string
		Run  ExperimentFn
	}{
		{"table2", "fractional scores on the Figure 1 example", Table2},
		{"table5", "Pearson correlation across initialization functions", Table5},
		{"fig4", "sensitivity to θ and w*", Fig4},
		{"fig5", "robustness against structural and label errors", Fig5},
		{"fig6", "sensitivity of upper-bound updating (β, α)", Fig6},
		{"fig7", "running time and candidate pairs while varying θ", Fig7},
		{"fig8", "FSimbj running time across datasets and optimizations", Fig8},
		{"fig9", "parallel scalability and density scaling", Fig9},
		{"table6", "pattern matching F1 across query scenarios", Table6},
		{"table7", "top-5 similar venues for WWW", Table7},
		{"table8", "nDCG of node similarity algorithms", Table8},
		{"table9", "graph alignment F1", Table9},
		{"delta", "worklist delta convergence vs full recomputation", Delta},
		{"topk", "single-source top-k queries vs full computation", TopK},
		{"dynamic", "incremental maintenance under update streams vs full recompute", Dynamic},
		{"serve", "HTTP serving layer load test: cache+coalescing vs naive recompute", Serve},
		{"snapshot", "binary snapshot warm start vs cold text-parse + Compute", Snapshot},
		{"scale", "nodes × edges × threads sweep: dynamic chunk queue speedup and determinism", Scale},
		{"cluster", "replicated serving tier over loopback sockets: router throughput, replication lag, re-sync time", Cluster},
		{"apps", "served application endpoints (/match, /align, /nodesim): cached vs naive throughput", Apps},
	}
}

// Run dispatches an experiment by id ("all" runs the full suite).
func Run(id string, cfg Config) error {
	if id == "all" {
		for _, e := range Registry() {
			fmt.Fprintf(cfg.out(), "==> %s: %s\n", e.ID, e.Desc)
			if err := e.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(cfg.out())
		}
		return nil
	}
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return fmt.Errorf("experiments: unknown id %q (want one of %s, or all)", id, strings.Join(ids, ", "))
}

// nellGraph returns the sensitivity-analysis workhorse: the NELL stand-in
// (§5.2 reports NELL only, "patterns were similar across datasets").
func nellGraph(cfg Config) *graph.Graph {
	scale := 90
	if cfg.Quick {
		scale = 240
	}
	spec := dataset.MustPaperSpec("NELL", scale)
	spec.Seed += cfg.Seed
	return spec.Generate()
}

// samplePairs draws a deterministic sample of node pairs used to correlate
// score vectors across configurations.
func samplePairs(n1, n2, max int, seed int64) [][2]graph.NodeID {
	total := n1 * n2
	if total <= max {
		out := make([][2]graph.NodeID, 0, total)
		for u := 0; u < n1; u++ {
			for v := 0; v < n2; v++ {
				out = append(out, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]graph.NodeID, max)
	for i := range out {
		out[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n1)), graph.NodeID(rng.Intn(n2))}
	}
	return out
}

// correlate computes Pearson's coefficient of two results over the portion
// of the pair sample maintained by BOTH runs. Restricting to the common
// candidate set is essential: configurations like θ=1 or upper-bound
// pruning drop pairs entirely, and comparing a real score against a
// "not maintained" zero would measure the candidate sets, not the scores.
func correlate(a, b *core.Result, pairs [][2]graph.NodeID) float64 {
	var xs, ys []float64
	for _, p := range pairs {
		if a.Contains(p[0], p[1]) && b.Contains(p[0], p[1]) {
			xs = append(xs, a.Score(p[0], p[1]))
			ys = append(ys, b.Score(p[0], p[1]))
		}
	}
	return stats.Pearson(xs, ys)
}

// sensitivityOptions is the §5.2 parameterization: w⁺ = w⁻ = 0.4 unless a
// sweep overrides it, Jaro-Winkler initialization, relative ε = 0.01. The
// iteration cap matches Corollary 1 for the absolute criterion; the greedy
// matching of dp/bj can oscillate below the per-pair relative threshold, so
// the cap keeps all variants on a comparable iteration budget.
func sensitivityOptions(variant exact.Variant, theta float64, threads int) core.Options {
	opts := core.DefaultOptions(variant)
	opts.Theta = theta
	opts.Threads = threads
	opts.MaxIters = 15
	return opts
}

// computeSelf runs FSim of g against itself (the paper's single-graph
// protocol: "we actually computed the FSimχ scores from the graph to
// itself").
func computeSelf(g *graph.Graph, opts core.Options) (*core.Result, error) {
	return core.Compute(g, g, opts)
}

// table formats aligned columns.
type table struct {
	headers []string
	rows    [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := utf8.RuneCountInString(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		return strings.TrimRight(sb.String(), " ")
	}
	fmt.Fprintln(w, line(t.headers))
	for _, r := range t.rows {
		fmt.Fprintln(w, line(r))
	}
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f", 100*x) }

func dur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// variantLabels renders the four χ names in paper order.
var variantOrder = []exact.Variant{exact.S, exact.DP, exact.B, exact.BJ}

var _ = strsim.Indicator // referenced by sibling files
