package core

import (
	"fmt"
	"time"

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

	// The starting witness is the x-core: it contains Q, and its minimum
	// degree x gives it density ≥ x/2.
	var best []int32
	for _, v := range sub.Orig {
		if dec.Core[v] >= x {
			best = append(best, v)
		}
	}
	// Dinkelbach steps on the anchored network: query vertices are pinned
	// to the source side, so the min cut maximizes e(S) − ρ(W)·|S| over
	// supersets S of Q only. The cut side always holds Q, so the decision
	// is not "is it empty" but "is it strictly denser than the witness W";
	// when it is not, nothing containing Q beats W. Every step
	// re-capacitates the one network of the anchored core.
	var stats Stats
	lower, _ := densityOf(g, motif.Clique{H: 2}, best)
	sd := flownet.NewEDSSide(nil, sub.Graph, local)
	for {
		nn, err := sd.Build(lower.Num, lower.Den)
		if err != nil {
			return nil, err
		}
		stats.Iterations++
		stats.FlowNodes = append(stats.FlowNodes, nn.N())
		vs := nn.SolveVertices()
		cand := sub.Graph.Induced(vs)
		d := rational.New(int64(cand.M()), int64(cand.N()))
		if !d.Greater(lower) {
			break
		}
		lower, best = d, toOrig(sub, vs)
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
