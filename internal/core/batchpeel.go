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

// PeelAppAtLeast solves the "densest at-least-k subgraph" heuristic of
// Andersen & Chellapilla (WAW'09), cited as [3]: greedy peeling restricted
// to residual subgraphs with at least k vertices. For edge density this is
// a 1/3-approximation of the optimal ≥k-vertex subgraph; the exact problem
// is NP-hard [5,4]. It reuses a precomputed whole-graph Ψ-degree vector
// (see BatchPeel for the contract; nil deg computes it); the trace peels
// a private copy.
func PeelAppAtLeast(g *graph.Graph, o motif.Oracle, k int, total int64, deg []int64) (*Result, error) {
	if k < 1 || k > g.N() {
		return nil, fmt.Errorf("core: size bound k=%d outside [1,%d]", k, g.N())
	}
	start := time.Now()
	reused := deg != nil
	if deg == nil {
		total, deg = o.CountAndDegrees(g)
	} else {
		deg = append([]int64(nil), deg...)
	}
	dec := peelTraceFrom(g, o, total, deg)
	best := rational.Zero
	bestStart := -1
	// Residual after i removals has n-i vertices; require n-i ≥ k.
	for i := 0; i+k <= g.N(); i++ {
		if r := dec.densities[i]; r.Greater(best) {
			best = r
			bestStart = i
		}
	}
	res := &Result{Density: best, Mu: best.Num}
	if bestStart >= 0 {
		res.Vertices = append([]int32(nil), dec.order[bestStart:]...)
		sortVertices(res.Vertices)
	}
	res.Stats.ReusedDegrees = reused
	res.Stats.Total = time.Since(start)
	return res, nil
}

// peelTrace runs min-degree peeling and records the density of every
// residual prefix (densities[i] = density after i removals).
type trace struct {
	order     []int32
	densities []rational.R
}

func peelTrace(g *graph.Graph, o motif.Oracle) *trace {
	total, deg := o.CountAndDegrees(g)
	return peelTraceFrom(g, o, total, deg)
}

// peelTraceFrom is peelTrace over caller-supplied degrees; deg is
// consumed (decremented in place).
func peelTraceFrom(g *graph.Graph, o motif.Oracle, total int64, deg []int64) *trace {
	st := motif.NewState(g)
	// Reuse the bucket-queue peel from psicore by inlining a simple exact
	// min scan here: the trace is used by small-to-medium workloads and
	// keeps this file self-contained. Complexity O(n²) worst case is
	// acceptable for the size-constrained variant's intended scale; the
	// main algorithms use the O(n+m) engine in psicore.
	n := g.N()
	tr := &trace{
		order:     make([]int32, 0, n),
		densities: make([]rational.R, 0, n+1),
	}
	mu := total
	alive := int64(n)
	for alive > 0 {
		tr.densities = append(tr.densities, rational.New(mu, alive))
		// Find the alive vertex with minimum degree.
		minV, minD := -1, int64(-1)
		for v := 0; v < n; v++ {
			if st.Alive[v] && (minV < 0 || deg[v] < minD) {
				minV, minD = v, deg[v]
			}
		}
		if deg[minV] != 0 {
			mu -= o.OnRemove(st, minV, func(u int, delta int64) {
				deg[u] -= delta
			})
		}
		st.Remove(minV)
		alive--
		tr.order = append(tr.order, int32(minV))
	}
	tr.densities = append(tr.densities, rational.Zero)
	return tr
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
