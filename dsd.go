// Package dsd is the public API of this repository: efficient exact and
// approximation algorithms for densest subgraph discovery (DSD), a Go
// reproduction of Fang, Yu, Cheng, Lakshmanan & Lin, "Efficient Algorithms
// for Densest Subgraph Discovery", PVLDB 12(11), 2019.
//
// The library finds, in an undirected simple graph, the subgraph
// maximizing Ψ-density µ(S,Ψ)/|S| where Ψ is an edge (EDS), an h-clique
// (CDS), or an arbitrary connected pattern (PDS). Algorithms:
//
//   - AlgoExact: flow-network probes on the whole graph (the pre-existing
//     state of the art, Algorithms 1 and 8, with exact Dinkelbach steps
//     in place of the bisection).
//   - AlgoCoreExact: the paper's contribution — the search is confined
//     to (k,Ψ)-cores, with flow networks that shrink as the bound
//     improves (Algorithm 4, Section 7.2).
//   - AlgoPeel: greedy peeling, 1/|VΨ|-approximation (Algorithm 2).
//   - AlgoInc / AlgoCoreApp: the (kmax,Ψ)-core as a 1/|VΨ|-approximation,
//     computed bottom-up or top-down (Algorithms 5 and 6).
//
// The one entrypoint is a Solver over one graph answering Query values —
// every problem variant (EDS/CDS/PDS, anchored, at-least-k, batch-peel,
// pruning ablations) is one Query, and repeated queries with the same Ψ
// reuse the memoized per-graph state:
//
//	g := dsd.FromEdges(4, [][2]int{{0,1},{0,2},{1,2},{2,3}})
//	s := dsd.NewSolver(g)
//	res, _ := s.Solve(ctx, dsd.Query{H: 3})           // triangle-densest, CoreExact
//	res, _ = s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoPeel}) // Ψ-state reused
//	fmt.Println(res.Density.Float(), res.Vertices)
package dsd

import (
	"io"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/psicore"
	"repro/internal/rational"
)

// Graph is an immutable undirected simple graph; see NewBuilder,
// FromEdges, FromEdgeList and LoadEdgeList for construction.
type Graph = graph.Graph

// Subgraph is an induced subgraph with its original-id mapping.
type Subgraph = graph.Subgraph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Pattern is a connected pattern graph Ψ for pattern-density queries.
type Pattern = pattern.Pattern

// Result is a densest-subgraph answer (vertex set, µ, exact density);
// its Stats field carries the run's QueryStats. A Result whose Degraded
// flag is set is a certified approximation (the deadline or accuracy
// budget of its Query stopped the exact search); its Bound brackets the
// true optimum.
type Result = core.Result

// Bound is a degraded Result's certified density interval: the optimum
// lies in [Lower, Upper].
type Bound = core.Bound

// Density is an exact rational density µ/n.
type Density = rational.R

// Stats describes the structural summary of a graph (Table 2 columns).
type Stats = graph.Stats

// NewBuilder returns a graph builder with room for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// FromEdgeList parses a whitespace edge list ("u v" per line, '#'/'%'
// comments).
func FromEdgeList(r io.Reader) (*Graph, error) { return graph.FromEdgeList(r) }

// LoadEdgeList reads an edge-list file.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// PatternByName resolves the paper's pattern names: "edge", "triangle",
// "h-clique" (h=2..8), "x-star" (x=2..6), "c3-star", "diamond",
// "x-triangle" (x=2..5), "basket".
func PatternByName(name string) (*Pattern, error) { return pattern.ByName(name) }

// Figure7Patterns returns the seven non-clique evaluation patterns in the
// paper's ID order.
func Figure7Patterns() []*Pattern { return pattern.Figure7() }

// Named pattern constructors.
var (
	// NewPattern validates and builds a custom connected pattern.
	NewPattern = pattern.New
	// Clique returns the h-clique pattern.
	Clique = pattern.KClique
	// Star returns the x-star pattern.
	Star = pattern.Star
	// DiamondPattern returns the 4-cycle ("diamond") pattern.
	DiamondPattern = pattern.Diamond
)

// VerifyResult checks a result's certificates against g: µ/ρ consistency
// always, plus (when exact is true) the Lemma-4 participation condition
// and single-vertex local maximality. It returns nil when all checks pass.
func VerifyResult(g *Graph, p *Pattern, res *Result, exact bool) error {
	return core.Certify(g, motif.For(p), res, exact)
}

// CoreNumbers computes classical k-core numbers (Batagelj–Zaversnik).
func CoreNumbers(g *Graph) []int32 {
	return kcore.Decompose(g).Core
}

// CliqueCoreNumbers computes (k,Ψ)-core numbers for Ψ = h-clique
// (Algorithm 3) and returns them with kmax.
func CliqueCoreNumbers(g *Graph, h int) ([]int64, int64) {
	d := psicore.Decompose(g, motif.Clique{H: h})
	return d.Core, d.KMax
}

// PatternCoreNumbers computes (k,Ψ)-core numbers for a general pattern.
func PatternCoreNumbers(g *Graph, p *Pattern) ([]int64, int64) {
	d := psicore.Decompose(g, motif.For(p))
	return d.Core, d.KMax
}

// CliqueCore returns the (k,Ψ)-core of g for Ψ = h-clique as an induced
// subgraph (possibly empty).
func CliqueCore(g *Graph, h int, k int64) *Subgraph {
	d := psicore.Decompose(g, motif.Clique{H: h})
	return g.Induced(d.CoreVertices(k))
}

// CountCliques returns µ(g,Ψ) for Ψ = h-clique.
func CountCliques(g *Graph, h int) int64 {
	return motif.Count(motif.Clique{H: h}, g)
}

// CliqueDegreesParallel computes h-clique degrees with the given number of
// workers (0 = GOMAXPROCS).
func CliqueDegreesParallel(g *Graph, h, workers int) []int64 {
	return clique.NewLister(g).DegreesParallel(h, workers)
}

// CountPatterns returns µ(g,Ψ) for a general pattern.
func CountPatterns(g *Graph, p *Pattern) int64 {
	return motif.Count(motif.For(p), g)
}

// CliqueDegrees returns deg(v,Ψ) for every vertex, Ψ = h-clique.
func CliqueDegrees(g *Graph, h int) []int64 {
	_, deg := motif.Clique{H: h}.CountAndDegrees(g)
	return deg
}

// PatternDegrees returns deg(v,Ψ) for every vertex for a general pattern.
func PatternDegrees(g *Graph, p *Pattern) []int64 {
	_, deg := motif.For(p).CountAndDegrees(g)
	return deg
}
