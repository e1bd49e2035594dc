package experiments

import (
	"fmt"

	"fsim/internal/core"
	"fsim/internal/dataset"
	"fsim/internal/exact"
	"fsim/internal/graph"
)

// Fig9 reproduces the paper's Figure 9: (a) parallel scalability of
// FSimbj{ub, θ=1} with 1–32 threads on the NELL and ACMCit stand-ins, and
// (b) running time while multiplying graph density ×1–×50.
//
// Wall-clock speedup stops at the host's core count (threads beyond it
// time-slice the cores), so panel (a) also reports the engine's
// load-balance factor (max shard work / mean shard work; 1.0 = perfectly
// even), the property the paper's round-robin distribution claim rests
// on.
func Fig9(cfg Config) error {
	w := cfg.out()

	mk := func(name string, scale int) *graph.Graph {
		spec := dataset.MustPaperSpec(name, scale)
		spec.Seed += cfg.Seed
		return spec.Generate()
	}
	nellScale, acmScale := 40, 400
	threadCounts := []int{1, 2, 4, 8, 16, 32}
	densities := []int{1, 10, 20, 30, 40, 50}
	if cfg.Quick {
		nellScale, acmScale = 160, 1600
		threadCounts = []int{1, 8}
		densities = []int{1, 10}
	}
	nell := mk("NELL", nellScale)
	acm := mk("ACMCit", acmScale)

	run := func(g *graph.Graph, threads int) (*core.Result, error) {
		opts := sensitivityOptions(exact.BJ, 1, threads)
		opts.UpperBoundOpt = &core.UpperBound{Alpha: 0, Beta: 0.5}
		return computeSelf(g, opts)
	}

	fmt.Fprintln(w, "(a) FSim_bj{ub,θ=1} vs number of threads (speedup stops at the host's cores: see load balance)")
	ta := &table{headers: []string{"threads", "NELL time", "NELL balance", "ACMCit time", "ACMCit balance"}}
	for _, threads := range threadCounts {
		rn, err := run(nell, threads)
		if err != nil {
			return err
		}
		ra, err := run(acm, threads)
		if err != nil {
			return err
		}
		ta.add(fmt.Sprintf("%d", threads), dur(rn.Duration), f3(rn.LoadBalance()),
			dur(ra.Duration), f3(ra.LoadBalance()))
	}
	ta.write(w)

	fmt.Fprintln(w, "\n(b) FSim_bj{ub,θ=1} vs density multiplier (NELL/ACMCit stand-ins, reduced base size)")
	// Much smaller bases keep the ×50 point tractable on a small host: the
	// same-label pair products grow quadratically in |E|, so the ×50
	// multiplier costs 2500× the base point.
	nellSmall := mk("NELL", nellScale*4)
	acmSmall := mk("ACMCit", acmScale*16)
	tb := &table{headers: []string{"density", "NELL time", "ACMCit time"}}
	for _, d := range densities {
		gn := dataset.Densify(nellSmall, d, 31+cfg.Seed)
		ga := dataset.Densify(acmSmall, d, 37+cfg.Seed)
		rn, err := run(gn, cfg.Threads)
		if err != nil {
			return err
		}
		ra, err := run(ga, cfg.Threads)
		if err != nil {
			return err
		}
		tb.add(fmt.Sprintf("x%d", d), dur(rn.Duration), dur(ra.Duration))
	}
	tb.write(w)
	return nil
}
