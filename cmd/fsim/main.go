// Command fsim computes fractional χ-simulation scores between two graphs
// given in the text format ("n <label>" / "e <u> <v>" lines).
//
// Usage:
//
//	fsim [flags] <graph1> [<graph2>]
//	fsim watch [flags] <graph> <updates>
//	fsim snapshot [flags] <graph> <out.fsnap>
//	fsim snapshot -info <file.fsnap>
//	fsim quotient <graph1> [<graph2>]
//
// With one graph argument, scores are computed from the graph to itself.
// By default the top scoring pairs are printed; use -u to list the best
// matches of a single node, or -all to dump every maintained pair.
//
// The watch subcommand maintains self-similarity scores incrementally
// while streaming updates ("+n <label>" / "+e <u> <v>" / "-e <u> <v>"
// lines) from a file, or from stdin when the updates argument is "-": each
// batch is absorbed by re-converging only its cone of influence, and the
// per-update maintenance stats are reported as the stream progresses. With
// -stats, aggregate counters (batches, applied changes, localized replays
// vs full recomputes, apply latency) are printed on exit for programmatic
// progress observation.
//
// The snapshot subcommand computes the self-similarity fixed point of a
// graph and persists the complete state — graph, candidate structures,
// scores, version — as a crash-safe binary snapshot that fsimserve
// -snapshot warm starts from without recomputing; -info prints the
// contents of an existing snapshot instead.
//
// The quotient subcommand prints structural-twin diagnostics: the twin
// partition of each graph (blocks, k-bisimulation classes, quotient-graph
// size).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fsim"
	"fsim/internal/cliflags"
	"fsim/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		watch(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		snapshotCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "quotient" {
		quotientCmd(os.Args[2:])
		return
	}
	eng := cliflags.Register(flag.CommandLine, cliflags.Defaults{UBBeta: -1})
	labelFn := flag.String("label", "jw", "label similarity: indicator, edit, or jw")
	topN := flag.Int("top", 20, "print the N best-scoring pairs")
	node := flag.Int("u", -1, "print the best matches of this node of graph1 instead")
	all := flag.Bool("all", false, "dump every maintained pair")
	flag.Parse()

	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: fsim [flags] <graph1> [<graph2>]")
		flag.Usage()
		os.Exit(2)
	}

	g1, err := fsim.ReadGraphFile(flag.Arg(0))
	fatal(err)
	g2 := g1
	if flag.NArg() == 2 {
		g2, err = fsim.ReadGraphFile(flag.Arg(1))
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "G1: %s\nG2: %s\n", g1.Stats(), g2.Stats())

	opts, err := eng.Options()
	fatal(err)
	switch *labelFn {
	case "indicator":
		opts.Label = fsim.Indicator
	case "edit":
		opts.Label = fsim.NormalizedEditDistance
	case "jw":
		opts.Label = fsim.JaroWinkler
	default:
		fatal(fmt.Errorf("unknown -label %q", *labelFn))
	}

	res, err := fsim.Compute(g1, g2, opts)
	fatal(err)
	fmt.Fprintf(os.Stderr, "converged=%v iterations=%d candidates=%d pruned=%d time=%s\n",
		res.Converged, res.Iterations, res.CandidateCount, res.PrunedCount, res.Duration)

	switch {
	case *node >= 0:
		for _, r := range res.TopK(fsim.NodeID(*node), *topN) {
			fmt.Printf("%d\t%d\t%.6f\n", *node, r.Index, r.Score)
		}
	case *all:
		res.ForEach(func(u, v fsim.NodeID, s float64) {
			fmt.Printf("%d\t%d\t%.6f\n", u, v, s)
		})
	default:
		type scored struct {
			u, v fsim.NodeID
			s    float64
		}
		var best []scored
		res.ForEach(func(u, v fsim.NodeID, s float64) {
			if len(best) < *topN {
				best = append(best, scored{u, v, s})
				for i := len(best) - 1; i > 0 && best[i].s > best[i-1].s; i-- {
					best[i], best[i-1] = best[i-1], best[i]
				}
				return
			}
			if s <= best[len(best)-1].s {
				return
			}
			best[len(best)-1] = scored{u, v, s}
			for i := len(best) - 1; i > 0 && best[i].s > best[i-1].s; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
		})
		for _, b := range best {
			fmt.Printf("%d\t%d\t%.6f\n", b.u, b.v, b.s)
		}
	}
}

// watch implements the "fsim watch" subcommand: incremental maintenance
// over an update stream.
func watch(args []string) {
	fs := flag.NewFlagSet("fsim watch", flag.ExitOnError)
	eng := cliflags.Register(fs, cliflags.Defaults{UBBeta: -1})
	batch := fs.Int("batch", 1, "apply updates in batches of this size")
	node := fs.Int("u", -1, "print this node's top matches after every batch")
	topN := fs.Int("top", 5, "how many matches -u prints")
	printStats := fs.Bool("stats", false, "print aggregate maintenance counters on exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fsim watch [flags] <graph> <updates>  (updates = file or '-' for stdin)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}

	g, err := fsim.ReadGraphFile(fs.Arg(0))
	fatal(err)
	fmt.Fprintf(os.Stderr, "G: %s\n", g.Stats())

	opts, err := eng.Options()
	fatal(err)
	mt, err := fsim.NewMaintainer(g, opts)
	fatal(err)
	fmt.Fprintf(os.Stderr, "initial fixed point: %d candidates\n", mt.Index().Candidates().NumCandidates())

	var in io.Reader = os.Stdin
	if name := fs.Arg(1); name != "-" {
		f, err := os.Open(name)
		fatal(err)
		defer f.Close()
		in = f
	}

	// Aggregate maintenance counters for -stats, accumulated through the
	// serving layer's counter types (internal/stats).
	var (
		batches, applied, replays, fulls, rebuilds, iters stats.Counter
		applyLatency                                      stats.Latency
	)

	report := func(pending []fsim.Change) {
		st, err := mt.Apply(pending)
		fatal(err)
		batches.Inc()
		applied.Add(int64(st.Applied))
		iters.Add(int64(st.Iterations))
		applyLatency.Observe(st.Duration)
		switch {
		case st.Applied == 0: // no-op batch: nothing was replayed
		case st.Rebuilt:
			rebuilds.Inc()
		case st.Full:
			fulls.Inc()
		default:
			replays.Inc()
		}
		mode := fmt.Sprintf("cone=%d closure=%d iters=%d", st.Cone, st.LocalPairs, st.Iterations)
		if st.Full {
			mode = "full recompute"
			if st.Rebuilt {
				mode = "store rebuild"
			}
		}
		fmt.Printf("applied %d/%d change(s) in %s (%s)\n", st.Applied, len(pending), st.Duration, mode)
		if *node >= 0 && *node < mt.Graph().NumNodes() {
			top, err := mt.TopK(fsim.NodeID(*node), *topN)
			fatal(err)
			for _, r := range top {
				fmt.Printf("  %d\t%d\t%.6f\n", *node, r.Index, r.Score)
			}
		}
	}

	// Stream line by line so "-" behaves like a tail -f feed: every -batch
	// parsed changes are applied as one batch, and a trailing partial
	// batch is flushed at EOF.
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var pending []fsim.Change
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := fsim.ParseChange(line)
		fatal(err)
		pending = append(pending, c)
		if len(pending) >= *batch {
			report(pending)
			pending = pending[:0]
		}
	}
	fatal(sc.Err())
	if len(pending) > 0 {
		report(pending)
	}
	fmt.Fprintf(os.Stderr, "final: %s\n", mt.Graph().Stats())
	if *printStats {
		fmt.Fprintf(os.Stderr,
			"stats: version=%d batches=%d applied=%d localized=%d full=%d rebuilds=%d iterations=%d mean-apply=%s max-apply=%s\n",
			mt.Version(), batches.Value(), applied.Value(), replays.Value(), fulls.Value(),
			rebuilds.Value(), iters.Value(),
			applyLatency.Mean().Round(time.Microsecond), applyLatency.Max().Round(time.Microsecond))
	}
}

// quotientCmd implements the "fsim quotient" subcommand: structural-twin
// diagnostics for one or two graphs.
func quotientCmd(args []string) {
	fs := flag.NewFlagSet("fsim quotient", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fsim quotient <graph1> [<graph2>]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		os.Exit(2)
	}

	describe := func(name string, g *fsim.Graph) {
		n := g.NumNodes()
		p := fsim.QuotientRefine(g, 2)
		q := p.Summarize(g)
		fmt.Printf("%s: %s\n", name, g.Stats())
		fmt.Printf("  twin blocks: %d (%.2fx node compression, k-bisim classes: %d)\n",
			p.NumBlocks(), float64(n)/float64(p.NumBlocks()), p.KBisimClasses)
		fmt.Printf("  quotient graph: %s\n", q.Stats())
	}
	for i, name := range []string{"G1", "G2"}[:fs.NArg()] {
		g, err := fsim.ReadGraphFile(fs.Arg(i))
		fatal(err)
		describe(name, g)
	}
}

// snapshotCmd implements the "fsim snapshot" subcommand: compute the
// self-similarity fixed point and persist it as a binary snapshot, or
// inspect an existing one with -info.
func snapshotCmd(args []string) {
	fs := flag.NewFlagSet("fsim snapshot", flag.ExitOnError)
	eng := cliflags.Register(fs, cliflags.Defaults{Theta: 0.6, UBBeta: 0.5, UBAlpha: 0.3})
	iters := fs.Int("iters", 12, "pinned iteration budget (matches fsimserve's serving contract)")
	info := fs.Bool("info", false, "print the contents of an existing snapshot instead of building one")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fsim snapshot [flags] <graph> <out.fsnap>\n       fsim snapshot -info <file.fsnap>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if *info {
		if fs.NArg() != 1 {
			fs.Usage()
			os.Exit(2)
		}
		mt, err := fsim.LoadSnapshot(fs.Arg(0))
		fatal(err)
		cs := mt.Index().Candidates()
		opts := mt.Options()
		ub := "off"
		if opts.UpperBoundOpt != nil {
			ub = fmt.Sprintf("β=%g α=%g", opts.UpperBoundOpt.Beta, opts.UpperBoundOpt.Alpha)
		}
		fmt.Printf("graph: %s\nversion: %d\nvariant: %s  w+=%g w-=%g θ=%g  upper-bound: %s  iters≤%d\ncandidates: %d  pruned: %d\n",
			mt.Graph().Stats(), mt.Version(), opts.Variant, opts.WPlus, opts.WMinus, opts.Theta,
			ub, opts.MaxIters, cs.NumCandidates(), cs.PrunedCount())
		return
	}

	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	g, err := fsim.ReadGraphFile(fs.Arg(0))
	fatal(err)
	fmt.Fprintf(os.Stderr, "G: %s\n", g.Stats())

	opts, err := eng.Options()
	fatal(err)
	// The same pinning as fsimserve, so a server warm started from this
	// snapshot serves scores bit-identical to one cold started with the
	// matching flags.
	opts = opts.WithPinnedIterations(*iters)

	start := time.Now()
	mt, err := fsim.NewMaintainer(g, opts)
	fatal(err)
	computed := time.Since(start)
	start = time.Now()
	fatal(fsim.SaveSnapshot(mt, fs.Arg(1)))
	st, err := os.Stat(fs.Arg(1))
	fatal(err)
	fmt.Fprintf(os.Stderr, "computed fixed point in %s; wrote %s (%d bytes) in %s\n",
		computed.Round(time.Millisecond), fs.Arg(1), st.Size(), time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsim:", err)
		os.Exit(1)
	}
}
