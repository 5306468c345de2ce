package core

import (
	"repro/internal/flow"
	"repro/internal/flownet"
	"repro/internal/graph"
	"repro/internal/motif"
)

// side abstracts the flow-network construction for one fixed graph so the
// binary-search drivers (Exact, CoreExact) are written
// once. A side is built per graph (or per component) and can then emit
// networks for any α.
type side interface {
	// Build returns the flow network for guess α. The network's arena is
	// recycled across calls: a Build invalidates every Net the side
	// returned before, which suits the binary-search drivers' strict
	// build→solve→discard cadence.
	Build(alpha float64) *flownet.Net
	// Nodes returns the network's node count (Figure 9's metric).
	Nodes() int
	// MaxMotifDeg is max_v deg(v,Ψ), the initial binary-search upper bound
	// of Algorithm 1.
	MaxMotifDeg() int64
}

// makeSide picks the network family: Goldberg's simplified network for
// edges, the (h−1)-clique network for h-cliques, and the instance network
// for patterns (grouped = construct+).
func makeSide(g *graph.Graph, o motif.Oracle, grouped bool) side {
	return makeSideReusing(g, o, grouped, nil)
}

// makeSideReusing is makeSide seeding the new side with a recycled
// network arena (nil for a fresh one) — CoreExact hands the pre-shrink
// side's network over when a component relocates to a higher core, so
// shrinking never restarts the allocation reuse.
func makeSideReusing(g *graph.Graph, o motif.Oracle, grouped bool, net *flow.Network) side {
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

func (s *edsSide) Build(alpha float64) *flownet.Net {
	nn := flownet.BuildEDSInto(s.net, s.g, alpha)
	s.net = nn.Network
	return nn
}
func (s *edsSide) Nodes() int         { return 2 + s.g.N() }
func (s *edsSide) MaxMotifDeg() int64 { return int64(s.g.MaxDegree()) }

type cdsSide struct {
	n   int
	cs  *flownet.CliqueSide
	net *flow.Network
}

func (s *cdsSide) Build(alpha float64) *flownet.Net {
	nn := flownet.BuildCDSInto(s.net, s.n, s.cs, alpha)
	s.net = nn.Network
	return nn
}
func (s *cdsSide) Nodes() int { return s.cs.NumNodes(s.n) }
func (s *cdsSide) MaxMotifDeg() int64 {
	var d int64
	for _, x := range s.cs.Deg {
		if x > d {
			d = x
		}
	}
	return d
}

type pdsSide struct {
	n   int
	ps  *flownet.PatternSide
	net *flow.Network
}

func (s *pdsSide) Build(alpha float64) *flownet.Net {
	nn := flownet.BuildPDSInto(s.net, s.n, s.ps, alpha)
	s.net = nn.Network
	return nn
}
func (s *pdsSide) Nodes() int { return s.ps.NumNodes(s.n) }
func (s *pdsSide) MaxMotifDeg() int64 {
	var d int64
	for _, x := range s.ps.Deg {
		if x > d {
			d = x
		}
	}
	return d
}
