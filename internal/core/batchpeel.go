package core

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
)

// BatchPeel is the streaming/MapReduce-friendly approximation of Bahmani,
// Kumar & Vassilvitskii (PVLDB'12), cited as [6] in the paper: instead of
// removing one minimum-degree vertex per step, every pass removes all
// vertices whose Ψ-degree is below (1+ε)·|VΨ|·ρ(current), so only
// O(log n / ε) passes over the graph are needed. The best residual is a
// 1/((1+ε)|VΨ|)-approximation of the densest subgraph.
//
// It reuses a precomputed whole-graph Ψ-degree vector (total = µ(G,Ψ),
// deg = per-vertex Ψ-degrees, exactly o.CountAndDegrees(g)'s results;
// nil deg computes them). The peel mutates a private copy, so one
// memoized vector may serve any number of concurrent calls.
func BatchPeel(g *graph.Graph, o motif.Oracle, eps float64, total int64, deg []int64) (*Result, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("core: BatchPeel needs ε > 0, got %f", eps)
	}
	start := time.Now()
	st := motif.NewState(g)
	reused := deg != nil
	if deg == nil {
		total, deg = o.CountAndDegrees(g)
	} else {
		deg = append([]int64(nil), deg...)
	}
	mu := total
	alive := int64(g.N())
	best := rational.Zero
	var bestSet []int32
	p := float64(o.Size())

	if alive > 0 {
		best = rational.New(mu, alive)
		bestSet = aliveVertices(st)
	}
	for alive > 0 && mu > 0 {
		threshold := (1 + eps) * p * float64(mu) / float64(alive)
		// Collect this pass's victims against the frozen threshold.
		var victims []int32
		for v := 0; v < g.N(); v++ {
			if st.Alive[v] && float64(deg[v]) < threshold {
				victims = append(victims, int32(v))
			}
		}
		if len(victims) == 0 {
			// Every vertex meets the threshold: the residual is
			// (⌈threshold⌉,Ψ)-core-like and the loop cannot progress;
			// density cannot improve by batch removal.
			break
		}
		for _, v := range victims {
			if !st.Alive[v] {
				continue
			}
			if deg[v] != 0 {
				mu -= o.OnRemove(st, int(v), func(u int, delta int64) {
					deg[u] -= delta
				})
			}
			st.Remove(int(v))
			alive--
		}
		if alive > 0 {
			if r := rational.New(mu, alive); r.Greater(best) {
				best = r
				bestSet = aliveVertices(st)
			}
		}
	}
	res := &Result{Vertices: bestSet, Mu: best.Num, Density: best}
	res.Stats.ReusedDegrees = reused
	res.Stats.Total = time.Since(start)
	return res, nil
}

func aliveVertices(st *motif.State) []int32 {
	var vs []int32
	for v := 0; v < st.G.N(); v++ {
		if st.Alive[v] {
			vs = append(vs, int32(v))
		}
	}
	return vs
}
