package core

import (
	"context"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/motif"
)

// Exact is the state-of-the-art exact algorithm: binary search on the
// guess α with a min s-t cut per probe, with the flow network rebuilt on
// the entire graph every iteration. For h-cliques it is Algorithm 1 (for
// Ψ = edge, Goldberg's simplified network; otherwise the (h−1)-clique
// network); for a general pattern it is Algorithm 8, one flow-network
// node per pattern instance — or, with grouped set, the construct+
// grouped network (Algorithm 7) without core-based pruning, isolating the
// effect of grouping for ablations. The binary search is seeded from
// Greed++ bounds (the same flow-free pre-solver CoreExact uses) instead
// of (0, max motif degree); the bounds are conservative certificates, so
// the returned density is unchanged and the seeding only removes probes.
func Exact(g *graph.Graph, o motif.Oracle, grouped bool) *Result {
	start := time.Now()
	n := g.N()
	if n < o.Size() {
		r := &Result{}
		r.Stats.Total = time.Since(start)
		return r
	}
	s := makeSide(g, o, grouped)
	var stats Stats
	l, u := 0.0, float64(s.MaxMotifDeg())
	var best []int32

	// Greed++ seeding (ROADMAP item): bracket ρ* with certified flow-free
	// bounds before the first network is built. The lower bound arrives
	// with a real witness, so even a search whose range closes outright
	// still returns the optimum; the upper bound is max-load/T rounded up
	// (UpperFloat), so it can never clip the true density. The lower seed
	// takes the mirror-image guard: Float rounds to nearest, so one
	// Nextafter step DOWN keeps l ≤ ρ* even when the witness is the
	// optimum and its density's ulp exceeds the Lemma-12 spacing —
	// without it, every probe in (ρ*, l] would fail and a strictly denser
	// subgraph than the greedy witness could be ruled out by rounding.
	pre := iterative.New(g, o)
	ran, _ := pre.RunAdaptive(context.Background(), DefaultIterativeBudget)
	stats.PreSolveIters += ran
	if lb, wit := pre.Lower(); len(wit) > 0 {
		best = append([]int32(nil), wit...) // wit is live solver state
		l = math.Nextafter(lb.Float(), math.Inf(-1))
	}
	if f := pre.UpperFloat(); f < u {
		u = f
	}

	stop := 1.0 / (float64(n) * float64(n-1))
	for u-l >= stop {
		alpha := (l + u) / 2
		net := s.Build(alpha)
		stats.FlowNodes = append(stats.FlowNodes, s.Nodes())
		stats.Iterations++
		vs := net.SolveVertices()
		if len(vs) == 0 {
			u = alpha
		} else {
			l = alpha
			best = vs
		}
	}
	if stats.Iterations == 0 {
		// The pre-solve bounds closed the search before any network was
		// built — the whole-graph analogue of a component finishing
		// flow-free.
		stats.PreSolveSkips++
	}
	res := Evaluate(g, o, best)
	res.Stats = stats
	res.Stats.Total = time.Since(start)
	return res
}
