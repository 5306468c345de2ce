package core

import (
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/flownet"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/rational"
)

// QueryDensest solves the CDS variant of Section 6.3: find the subgraph
// with the highest edge-density among subgraphs containing every query
// vertex. Following the paper, the search is located in a small core:
// with x the minimum classical core number over the query set, the x-core
// contains the queries and has density ≥ x/2, so the answer has density
// ≥ x/2 and its non-query vertices all have internal degree ≥ ⌈x/2⌉.
// The flow network is therefore built on the query-anchored ⌈x/2⌉-core —
// the subgraph left by peeling non-query vertices of degree < ⌈x/2⌉ —
// instead of the whole graph. It reuses dec, a precomputed classical
// k-core decomposition of g, when non-nil (nil computes one) — the
// per-graph locate state a warm dsd.Solver shares across anchored
// queries. dec is only read.
func QueryDensest(g *graph.Graph, query []int32, dec *kcore.Decomposition) (*Result, error) {
	start := time.Now()
	n := g.N()
	if len(query) == 0 {
		return nil, fmt.Errorf("core: empty query set")
	}
	inQ := make([]bool, n)
	for _, q := range query {
		if int(q) < 0 || int(q) >= n {
			return nil, fmt.Errorf("core: query vertex %d out of range", q)
		}
		inQ[q] = true
	}

	// Locate: x = min core number over Q; peel non-query vertices below
	// ⌈x/2⌉.
	reused := dec != nil
	if dec == nil {
		dec = kcore.Decompose(g)
	}
	x := dec.Core[query[0]]
	for _, q := range query {
		if dec.Core[q] < x {
			x = dec.Core[q]
		}
	}
	k := (int64(x) + 1) / 2
	keep := anchoredCore(g, inQ, k)

	sub := g.Induced(keep)
	local := make([]int32, 0, len(query))
	pos := make(map[int32]int32, len(keep))
	for i, v := range sub.Orig {
		pos[v] = int32(i)
	}
	for _, q := range query {
		lq, ok := pos[q]
		if !ok {
			return nil, fmt.Errorf("core: query vertex %d fell out of the anchored core", q)
		}
		local = append(local, lq)
	}

	// Binary search with the anchored Goldberg network: query vertices are
	// pinned to the source side, so the min cut optimizes over supersets
	// of Q only.
	var stats Stats
	l := float64(x) / 2
	u := float64(sub.MaxDegree())
	if u < l {
		u = l
	}
	nn := sub.N()
	stop := 1.0 / (float64(nn) * float64(nn-1))
	if nn < 2 {
		res := Evaluate(g, motif.Clique{H: 2}, []int32{query[0]})
		res.Stats.ReusedDecomposition = reused
		res.Stats.Total = time.Since(start)
		return res, nil
	}
	// The starting witness is the x-core: it contains Q, and its minimum
	// degree x gives it density ≥ x/2 = l. The anchored ⌈x/2⌉-core need
	// not reach l, and when no density above l exists the search never
	// replaces its starting witness.
	var best []int32
	for _, v := range sub.Orig {
		if dec.Core[v] >= x {
			best = append(best, v)
		}
	}
	for u-l >= stop {
		alpha := (l + u) / 2
		net := buildAnchoredEDS(sub.Graph, local, alpha)
		stats.Iterations++
		stats.FlowNodes = append(stats.FlowNodes, net.N())
		// The min cut always keeps Q on the source side (the s→q edges are
		// infinite), so the decision is not "is S empty" but "does the
		// maximizer of e(S)−α|S| over S ⊇ Q beat density α".
		vs := net.SolveVertices()
		cand := sub.Graph.Induced(vs)
		if rational.New(int64(cand.M()), int64(cand.N())).Float() > alpha {
			l = alpha
			best = toOrig(sub, vs)
		} else {
			u = alpha
		}
	}
	res := Evaluate(g, motif.Clique{H: 2}, best)
	res.Stats = stats
	res.Stats.ReusedDecomposition = reused
	res.Stats.Total = time.Since(start)
	return res, nil
}

// anchoredCore peels non-query vertices whose residual degree is below k,
// protecting query vertices, and returns the survivors.
func anchoredCore(g *graph.Graph, inQ []bool, k int64) []int32 {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int64, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = int64(g.Degree(v))
	}
	for v := 0; v < n; v++ {
		if !inQ[v] && deg[v] < k {
			queue = append(queue, int32(v))
			alive[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(int(v)) {
			if !alive[w] {
				continue
			}
			deg[w]--
			if !inQ[w] && deg[w] < k {
				alive[w] = false
				queue = append(queue, w)
			}
		}
	}
	var keep []int32
	for v := 0; v < n; v++ {
		if alive[v] {
			keep = append(keep, int32(v))
		}
	}
	return keep
}

// buildAnchoredEDS is Goldberg's EDS network with the query vertices
// pinned to the source side (s→q with +∞, no q→t edge).
func buildAnchoredEDS(g *graph.Graph, query []int32, alpha float64) *flownet.Net {
	n := g.N()
	m := float64(g.M())
	f := flow.NewNetwork(2 + n)
	anchored := make([]bool, n)
	for _, q := range query {
		anchored[q] = true
	}
	for v := 0; v < n; v++ {
		if anchored[v] {
			f.AddEdge(flownet.Source, flownet.VertexNode(v), flow.Inf)
		} else {
			f.AddEdge(flownet.Source, flownet.VertexNode(v), m)
			f.AddEdge(flownet.VertexNode(v), flownet.Sink, m+2*alpha-float64(g.Degree(v)))
		}
	}
	g.Edges(func(u, v int) {
		f.AddEdge(flownet.VertexNode(u), flownet.VertexNode(v), 1)
		f.AddEdge(flownet.VertexNode(v), flownet.VertexNode(u), 1)
	})
	return &flownet.Net{Network: f, NVertices: n}
}
