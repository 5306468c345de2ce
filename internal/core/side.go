package core

import (
	"context"

	"repro/internal/flow"
	"repro/internal/flownet"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
)

// side abstracts the flow-network construction for one fixed graph so the
// Dinkelbach drivers (Exact, CoreExact) are written once. A side is built
// per graph (or per component) and can then emit networks for any α.
type side interface {
	// Build returns the int64 flow network for the probe α = num/den. The
	// network's arena is recycled across calls: a Build invalidates every
	// Net the side returned before, which suits the drivers' strict
	// build→solve→discard cadence. It fails only when the scaled
	// capacities overflow int64.
	Build(num, den int64) (*flownet.Net, error)
	// Nodes returns the network's node count (Figure 9's metric).
	Nodes() int
}

// makeSide picks the network family — Goldberg's network for edges, the
// (h−1)-clique network for h-cliques, and the instance network for
// patterns (grouped = construct+) — seeding it with a recycled network
// arena (nil for a fresh one). CoreExact hands the pre-shrink side's
// network over when a component relocates to a higher core, so shrinking
// never restarts the allocation reuse.
func makeSide(g *graph.Graph, o motif.Oracle, grouped bool, net *flow.Network) side {
	if c, ok := o.(motif.Clique); ok {
		if c.H == 2 {
			return &edsSide{g: g, net: net}
		}
		return &cdsSide{n: g.N(), cs: flownet.NewCliqueSide(g, c.H), net: net}
	}
	return &pdsSide{n: g.N(), ps: flownet.NewPatternSide(g, o, grouped), net: net}
}

// takeNet surrenders a side's network arena for reuse by a successor.
func takeNet(sd side) *flow.Network {
	switch s := sd.(type) {
	case *edsSide:
		return s.net
	case *cdsSide:
		return s.net
	case *pdsSide:
		return s.net
	}
	return nil
}

type edsSide struct {
	g   *graph.Graph
	net *flow.Network
}

func (s *edsSide) Build(num, den int64) (*flownet.Net, error) {
	nn, err := flownet.BuildEDS(s.net, s.g, nil, num, den)
	if err == nil {
		s.net = nn.Network
	}
	return nn, err
}
func (s *edsSide) Nodes() int { return 2 + s.g.N() }

type cdsSide struct {
	n   int
	cs  *flownet.CliqueSide
	net *flow.Network
}

func (s *cdsSide) Build(num, den int64) (*flownet.Net, error) {
	nn, err := flownet.BuildCDS(s.net, s.n, s.cs, num, den)
	if err == nil {
		s.net = nn.Network
	}
	return nn, err
}
func (s *cdsSide) Nodes() int { return s.cs.NumNodes(s.n) }

type pdsSide struct {
	n   int
	ps  *flownet.PatternSide
	net *flow.Network
}

func (s *pdsSide) Build(num, den int64) (*flownet.Net, error) {
	nn, err := flownet.BuildPDS(s.net, s.n, s.ps, num, den)
	if err == nil {
		s.net = nn.Network
	}
	return nn, err
}
func (s *pdsSide) Nodes() int { return s.ps.NumNodes(s.n) }

// probe builds sd's network at α and returns the vertices, in sd's graph
// ids, on the minimal source side of its min cut: nil certifies exactly
// that nothing in the graph is denser than α, and a non-nil set is
// strictly denser than α. The empty density probes as 0/1.
func probe(ctx context.Context, sd side, alpha rational.R) ([]int32, error) {
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
