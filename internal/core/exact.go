package core

import (
	"context"
	"time"

	"repro/internal/flownet"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/motif"
)

// Exact is the state-of-the-art exact algorithm: a min s-t cut per probe
// on a flow network over the entire graph, re-capacitated for every
// probe. For h-cliques it is Algorithm 1's network (for Ψ = edge,
// Goldberg's network); for a general pattern it is Algorithm 8's, one
// node per pattern instance — or, with grouped set, the construct+
// grouped network (Algorithm 7) without core-based pruning, isolating
// the effect of grouping for ablations.
//
// The probes are Dinkelbach steps instead of the paper's bisection: the
// first is at α = ρ(W) for W the Greed++ pre-solver's witness, and every
// non-empty cut is a strictly denser subgraph whose exact density is the
// next α. The first empty cut certifies the current witness optimal, so
// the answer needs no Lemma-12 spacing argument. When the Greed++ bounds
// already meet (ρ(W) ≥ max-load/T), no network is built at all. It fails
// only when a network's capacities would overflow int64.
func Exact(g *graph.Graph, o motif.Oracle, grouped bool) (*Result, error) {
	start := time.Now()
	if g.N() < o.Size() {
		r := &Result{}
		r.Stats.Total = time.Since(start)
		return r, nil
	}
	var stats Stats
	pre := iterative.New(g, o)
	ran, _ := pre.RunAdaptive(context.Background(), DefaultIterativeBudget)
	stats.PreSolveIters = ran
	stats.PreSolveTime = time.Since(start)
	lower, wit := pre.Lower()
	best := append([]int32(nil), wit...) // wit is live solver state
	if lower.Cmp(pre.Upper()) >= 0 {
		// The pre-solve bounds closed before any network was built — the
		// whole-graph analogue of a component finishing flow-free.
		stats.PreSolveSkips++
	} else {
		s := flownet.NewSide(nil, g, o, grouped)
		for {
			vs, err := probe(context.Background(), s, lower)
			if err != nil {
				return nil, err
			}
			stats.FlowNodes = append(stats.FlowNodes, s.Nodes())
			stats.Iterations++
			if len(vs) == 0 {
				break
			}
			best = vs
			lower, _ = densityOf(g, o, vs)
		}
	}
	res := Evaluate(g, o, best)
	res.Stats = stats
	res.Stats.Total = time.Since(start)
	return res, nil
}
