package query

import (
	"fsim/internal/core"
	"fsim/internal/pairbits"
)

// state is one localized run's scratch: the seed pairs and the
// core.Closure that collects their dependency closure and iterates it on
// the batch engine's candidate-position layout. States are pooled per
// Index and reused across queries and patches; they are not safe for
// concurrent use (the Index pool hands each goroutine its own).
type state struct {
	seeds   []pairbits.Key
	closure core.Closure
}

// run iterates the dependency closure of seeds to its fixed point.
func (s *state) run(cs *core.CandidateSet, seeds []pairbits.Key) Stats {
	iters, converged := cs.RunClosure(&s.closure, seeds)
	return Stats{Seeds: len(seeds), LocalPairs: s.closure.Len(), Iterations: iters, Converged: converged}
}
