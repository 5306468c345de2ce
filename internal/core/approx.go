package core

import (
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/psicore"
)

// The approximation algorithms. All guarantee ρ(S*) ≥ ρopt/|VΨ| (Lemma 8 /
// Lemma 10): PeelApp via the peeling argument of Charikar/Tsourakakis,
// IncApp/CoreApp/Nucleus by returning (a superset-free copy of) the
// (kmax,Ψ)-core, whose density Theorem 1 bounds below by kmax/|VΨ|.

// PeelApp is Algorithm 2: repeatedly remove the vertex with minimum
// Ψ-degree and return the densest residual subgraph. It reuses dec, a
// precomputed (k,Ψ)-core decomposition, when non-nil (nil computes one):
// the answer is read straight off the decomposition's residual-density
// tracking, so a warm dsd.Solver serves it without touching the graph.
// dec is only read.
func PeelApp(g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition) *Result {
	start := time.Now()
	reused := dec != nil
	if dec == nil {
		dec = psicore.Decompose(g, o)
	}
	res := &Result{
		Vertices: dec.BestResidualVertices(),
		Mu:       dec.BestResidualMu,
		Density:  dec.BestResidual,
	}
	sortVertices(res.Vertices)
	if !reused {
		res.Stats.Decompose = time.Since(start)
	}
	res.Stats.ReusedDecomposition = reused
	res.Stats.Total = time.Since(start)
	return res
}

// IncApp is Algorithm 5: full (k,Ψ)-core decomposition, returning the
// (kmax,Ψ)-core. It reuses dec when non-nil (nil computes one); only the
// (kmax,Ψ)-core's own µ is then re-counted.
func IncApp(g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition) *Result {
	start := time.Now()
	reused := dec != nil
	if dec == nil {
		dec = psicore.Decompose(g, o)
	}
	res := Evaluate(g, o, dec.KMaxCoreVertices())
	if !reused {
		res.Stats.Decompose = time.Since(start)
	}
	res.Stats.ReusedDecomposition = reused
	res.Stats.Total = time.Since(start)
	return res
}

// CoreApp is Algorithm 6: extract the (kmax,Ψ)-core top-down from windows
// of high-γ vertices, skipping the computation of lower cores. kc is g's
// classical core decomposition when the caller holds one (nil computes it
// where γ needs it; see psicore.CoreApp).
func CoreApp(g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition) *Result {
	start := time.Now()
	ca := psicore.CoreApp(g, o, kc)
	res := Evaluate(g, o, ca.Vertices)
	res.Stats.Total = time.Since(start)
	return res
}

// Nucleus is the baseline that computes the (kmax,Ψ)-core with the
// local (AND-style) nucleus decomposition instead of peeling. It reuses
// dec when non-nil (nil computes one); dec must then come from
// psicore.NucleusDecompose — the nucleus core numbers differ from the
// peel decomposition's, so the two memo kinds are never interchangeable.
func Nucleus(g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition) *Result {
	start := time.Now()
	reused := dec != nil
	if dec == nil {
		dec = psicore.NucleusDecompose(g, o)
	}
	res := Evaluate(g, o, dec.KMaxCoreVertices())
	if !reused {
		res.Stats.Decompose = time.Since(start)
	}
	res.Stats.ReusedDecomposition = reused
	res.Stats.Total = time.Since(start)
	return res
}

func sortVertices(vs []int32) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}
