package core

import (
	"context"

	"repro/internal/flownet"
	"repro/internal/rational"
)

// probe sets sd's network to α and returns the vertices, in sd's graph
// ids, on the minimal source side of its min cut: nil certifies exactly
// that nothing in the graph is denser than α, and a non-nil set is
// strictly denser than α. The empty density probes as 0/1. The side
// keeps its network across probes and only re-capacitates it, so the
// Dinkelbach drivers (Exact, CoreExact) build each graph's arcs once.
func probe(ctx context.Context, sd *flownet.Side, alpha rational.R) ([]int32, error) {
	num, den := alpha.Num, alpha.Den
	if den == 0 {
		num, den = 0, 1
	}
	net, err := sd.Build(num, den)
	if err != nil {
		return nil, err
	}
	return net.SolveVerticesCtx(ctx)
}
