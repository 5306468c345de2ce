package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/rational"
)

// Result is a densest-subgraph answer: the vertex set D, its instance
// count µ(D,Ψ) and its exact density ρ(D,Ψ) = µ/|V_D|.
type Result struct {
	// Vertices is D's vertex set in the input graph's ids, sorted.
	Vertices []int32
	// Mu is µ(D,Ψ), the number of Ψ-instances inside D.
	Mu int64
	// Density is the exact density µ/|V_D|.
	Density rational.R
	// Degraded reports that the run stopped before certifying exactness —
	// a deadline or accuracy budget (Options.Deadline / Options.Gap) ended
	// the search early — and the answer is the best certified
	// approximation held at that moment. Vertices is still a real subgraph
	// and Density its exact density; only optimality is open, and Bound
	// says by how much. Exact runs leave Degraded false and Bound zero.
	Degraded bool
	// Bound is the certificate of a degraded answer: the optimum density
	// ρopt satisfies Lower ≤ ρopt ≤ Upper, with Lower the returned
	// witness's exact density and Upper the maximum surviving
	// per-component upper bound (core-number, Greed++ max-load/T, and
	// empty-cut probe certificates, whichever is tightest per component).
	Bound Bound
	// Stats carries per-run instrumentation.
	Stats Stats
}

// Bound is a certified density interval: the true optimum lies in
// [Lower, Upper]. Lower is exact (it is a real subgraph's density);
// Upper is a float but rounded conservatively, never below the true
// optimum.
type Bound struct {
	Lower rational.R
	Upper float64
}

// Stats instruments a run for the paper's efficiency figures.
type Stats struct {
	// Decompose is the time spent in (k,Ψ)-core decomposition (Table 3).
	Decompose time.Duration
	// Total is the wall-clock time of the whole run.
	Total time.Duration
	// FlowNodes records the node count of every flow network built, in
	// order (Figure 9: networks shrink across a search's probes).
	FlowNodes []int
	// Iterations counts flow probes, i.e. flow networks built and min-cut
	// computations performed.
	Iterations int
	// PreSolveIters counts the Greed++ load-balancing iterations Exact
	// runs for its starting witness; PreSolveSkips is 1 when those bounds
	// met and Exact built no flow network. CoreExact's component searches
	// run no Greed++, so both read 0 on core-exact runs.
	PreSolveIters int
	PreSolveSkips int
	// ReusedDecomposition reports that the run was handed a precomputed
	// (k,Ψ)-core (or nucleus, or classical-core) decomposition via a
	// non-nil state argument instead of computing its own — the hot path a
	// warm dsd.Solver serves; Decompose is zero on such runs.
	ReusedDecomposition bool
	// ReusedDegrees reports that the run was handed the whole-graph
	// Ψ-degree vector as a state argument instead of enumerating
	// instances itself.
	ReusedDegrees bool
	// BoundedCores reports that the run located on upper-bound core
	// numbers carried across a mutation (Options.DecUpperBound) instead
	// of an exact peel of its own graph — the hot path of a mutated
	// dsd.Solver, which skips both the Ψ-instance counting and the peel.
	BoundedCores bool
	// FlowTime is the wall time summed over every flow-network build plus
	// min-cut solve; PreSolveTime over Greed++ pre-solve runs (0 on
	// core-exact runs, as PreSolveIters). On parallel runs the phases overlap
	// across workers, so the sums can exceed Total — they are CPU-style
	// attribution ("where the work went"), the paper's flow-vs-peel split.
	FlowTime     time.Duration
	PreSolveTime time.Duration
	// AllocBytes/Allocs are the heap allocation attributed to the run:
	// the allocation-counter delta over the root span's window. Non-zero
	// only on traced runs — the tracer's memory sampling is what
	// measures them — and process-wide, so concurrent queries inflate
	// each other's deltas (the per-phase trace says where the bytes
	// went). They are also span-granular (see internal/obs): a run that
	// allocates less than about a span per size class may read zero.
	AllocBytes int64
	Allocs     int64
	// Trace is the phase-level span tree of the run, non-nil only when
	// the caller's context carried an obs.Tracer (see obs.WithSpan).
	Trace *obs.Trace
}

// Evaluate builds the full Result (µ, exact density, sorted vertex set)
// for the subgraph of g induced by vs. The engines return their witness
// through it, and dsd.Solver.EvaluateWitness uses it to recompute a
// witness's certificate from the graph.
func Evaluate(g *graph.Graph, o motif.Oracle, vs []int32) *Result {
	if len(vs) == 0 {
		return &Result{Density: rational.Zero}
	}
	sub := g.Induced(vs)
	mu, _ := o.CountAndDegrees(sub.Graph)
	return &Result{
		Vertices: sub.Orig,
		Mu:       mu,
		Density:  rational.New(mu, int64(len(sub.Orig))),
	}
}

// witnessValid reports whether every id in vs is a vertex of g — the
// guard that lets PlanCoreExact evaluate a caller-supplied seed witness
// (possibly from an older graph version) without panicking on out-of-
// range ids. Duplicate ids are harmless: Induced de-duplicates.
func witnessValid(g *graph.Graph, vs []int32) bool {
	n := int32(g.N())
	for _, v := range vs {
		if v < 0 || v >= n {
			return false
		}
	}
	return true
}

// densityOf computes the exact Ψ-density of the subgraph induced by vs.
func densityOf(g *graph.Graph, o motif.Oracle, vs []int32) (rational.R, int64) {
	if len(vs) == 0 {
		return rational.Zero, 0
	}
	sub := g.Induced(vs)
	mu, _ := o.CountAndDegrees(sub.Graph)
	return rational.New(mu, int64(len(sub.Orig))), mu
}
