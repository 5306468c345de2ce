package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/psicore"
	"repro/internal/rational"
)

// The approximation algorithms. All guarantee ρ(S*) ≥ ρopt/|VΨ| (Lemma 8 /
// Lemma 10): PeelApp via the peeling argument of Charikar/Tsourakakis,
// IncApp/CoreApp/Nucleus by returning (a superset-free copy of) the
// (kmax,Ψ)-core, whose density Theorem 1 bounds below by kmax/|VΨ|.

// PeelApp is Algorithm 2: repeatedly remove the vertex with minimum
// Ψ-degree and return the densest residual subgraph. It reuses dec, a
// precomputed whole-graph (k,Ψ)-core decomposition (Floor 0), when
// non-nil (nil computes one): the answer is read straight off the
// decomposition's residual-density tracking, so a warm dsd.Solver serves
// it without touching the graph. dec is only read. PeelApp is
// PeelAppAtLeast's k = 1 case.
func PeelApp(g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition) *Result {
	return peelAtLeast(g, o, 1, dec)
}

// PeelAppAtLeast solves the "densest at-least-k subgraph" heuristic of
// Andersen & Chellapilla (WAW'09), cited as [3]: greedy peeling restricted
// to residual subgraphs with at least k vertices. For edge density this is
// a 1/3-approximation of the optimal ≥k-vertex subgraph; the exact problem
// is NP-hard [5,4]. It ranks the residuals of PeelApp's own peel, dec's
// peel order (see PeelApp for the contract; nil computes one), so k = 1
// answers exactly as PeelApp does.
func PeelAppAtLeast(g *graph.Graph, o motif.Oracle, k int, dec *psicore.Decomposition) (*Result, error) {
	if k < 1 || k > g.N() {
		return nil, fmt.Errorf("core: size bound k=%d outside [1,%d]", k, g.N())
	}
	if dec != nil && dec.Floor != 0 {
		return nil, fmt.Errorf("core: at-least needs a whole-graph peel, got one restricted at floor %d", dec.Floor)
	}
	return peelAtLeast(g, o, k, dec), nil
}

// peelAtLeast returns the densest residual Order[i:] of dec's peel that
// keeps at least k vertices, the earliest i on ties. The decomposition's
// best residual is that answer whenever it is large enough; otherwise
// residualAtLeast replays the peel to rank the admissible residuals.
func peelAtLeast(g *graph.Graph, o motif.Oracle, k int, dec *psicore.Decomposition) *Result {
	start := time.Now()
	reused := dec != nil
	if dec == nil {
		dec = psicore.Decompose(g, o)
	}
	decTime := time.Since(start)
	from, mu, density := dec.BestResidualStart, dec.BestResidualMu, dec.BestResidual
	if len(dec.Order)-from < k {
		from, mu, density = residualAtLeast(g, o, k, dec)
	}
	res := &Result{
		Vertices: append([]int32(nil), dec.Order[from:]...),
		Mu:       mu,
		Density:  density,
	}
	sortVertices(res.Vertices)
	if !reused {
		res.Stats.Decompose = decTime
	}
	res.Stats.ReusedDecomposition = reused
	res.Stats.Total = time.Since(start)
	return res
}

// residualAtLeast replays µ along dec.Order over the residuals that keep
// at least k vertices and returns the densest one's start, µ and density,
// with the peel's own tie-break (strictly greater wins). A vertex of core
// number 0 lies in no live instance when the peel removes it, so it
// leaves without asking the oracle.
func residualAtLeast(g *graph.Graph, o motif.Oracle, k int, dec *psicore.Decomposition) (int, int64, rational.R) {
	n := len(dec.Order)
	st := motif.NewState(g)
	mu := dec.TotalInstances
	from, bestMu, best := 0, mu, rational.New(mu, int64(n))
	for i := 0; i < n-k; i++ {
		v := dec.Order[i]
		if dec.Core[v] != 0 {
			mu -= o.OnRemove(st, int(v), func(int, int64) {})
		}
		st.Remove(int(v))
		if r := rational.New(mu, int64(n-i-1)); r.Greater(best) {
			from, bestMu, best = i+1, mu, r
		}
	}
	return from, bestMu, best
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
