package dsd

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/motif"
)

// Algo selects a densest-subgraph algorithm.
type Algo string

// The available algorithms. Exact algorithms return the true optimum;
// approximation algorithms guarantee density ≥ ρopt/|VΨ|. The last three
// are problem variants rather than alternative engines: they answer a
// different question (anchored, size-constrained, streaming) and take
// their parameter from the matching Query field.
const (
	AlgoExact     Algo = "exact"      // Algorithm 1 / 8 (baseline exact)
	AlgoCoreExact Algo = "core-exact" // Algorithm 4 / CorePExact (this paper)
	AlgoPeel      Algo = "peel"       // Algorithm 2 (baseline approximation)
	AlgoInc       Algo = "inc"        // Algorithm 5 (core, bottom-up)
	AlgoCoreApp   Algo = "core-app"   // Algorithm 6 (core, top-down; this paper)
	AlgoNucleus   Algo = "nucleus"    // nucleus-decomposition baseline
	// AlgoAnchored is the §6.3 variant: the edge-densest subgraph among
	// those containing every vertex of Query.Anchors.
	AlgoAnchored Algo = "anchored"
	// AlgoBatchPeel is the streaming approximation of Bahmani et al. [6]:
	// batch-removal passes with slack Query.Eps.
	AlgoBatchPeel Algo = "batch-peel"
	// AlgoAtLeast is the size-constrained heuristic of Andersen &
	// Chellapilla [3]: the densest residual with ≥ Query.AtLeast vertices
	// of AlgoPeel's own (k,Ψ)-core peel, which it shares through the
	// Solver's memo; AtLeast 1 answers exactly as AlgoPeel does.
	AlgoAtLeast Algo = "at-least"
)

// algos lists every valid algorithm, in the order ParseAlgo reports them.
var algos = []Algo{
	AlgoExact, AlgoCoreExact, AlgoPeel, AlgoInc, AlgoCoreApp, AlgoNucleus,
	AlgoAnchored, AlgoBatchPeel, AlgoAtLeast,
}

// ParseAlgo resolves an algorithm name, listing the valid names in its
// error so an unknown algorithm fails fast with a helpful message at the
// edge (flag parsing, wire decoding) instead of deep inside a run.
func ParseAlgo(s string) (Algo, error) {
	a := Algo(s)
	for _, v := range algos {
		if a == v {
			return a, nil
		}
	}
	names := make([]string, len(algos))
	for i, v := range algos {
		names[i] = string(v)
	}
	return "", fmt.Errorf("dsd: unknown algorithm %q (valid: %s)", s, strings.Join(names, ", "))
}

// Query expresses every densest-subgraph problem this library supports in
// one value: the motif Ψ, the algorithm, its execution knobs, and the
// problem-variant parameters. The zero value asks for the edge-densest
// subgraph via CoreExact with default prunings, serially.
//
// A Query is pure data — build one, pass it to Solver.Solve, serialize it
// over the dsdd v2 wire, or use Key as a cache key. See Normalized for
// the canonical form. Cancellation is a property of the run, not the
// query: Solve documents the contract (core-exact stops cooperatively;
// every other algorithm finishes on a background goroutine after its
// caller's ctx ends, then is dropped).
type Query struct {
	// Pattern is Ψ as an arbitrary connected pattern (see PatternByName).
	// At most one of Pattern and H may be set; both zero selects Ψ = edge.
	Pattern *Pattern
	// H selects Ψ = h-clique, 2 ≤ h ≤ 8 (0 defers to Pattern or edge).
	H int
	// Algo selects the algorithm. "" infers one from the variant fields:
	// AlgoAnchored when Anchors is set, AlgoAtLeast when AtLeast is set,
	// AlgoBatchPeel when Eps is set, AlgoCoreExact otherwise.
	Algo Algo
	// Workers bounds intra-run parallelism for algorithms with a parallel
	// engine (currently core-exact). Values ≤ 1 run serially. The
	// returned density is identical for every value.
	Workers int
	// Iterative tunes the Greed++ rung of a core-exact stream
	// (StreamFunc's StageIterative answers): 0 keeps the default
	// (core.DefaultIterativeBudget iterations), a negative value skips the
	// rung, a positive value sets the iteration budget. Solve ignores it —
	// core-exact runs no Greed++ pre-solve — so its answer, witness and
	// stats are identical for every value. It is still part of Key.
	Iterative int
	// Core overrides CoreExact's pruning switches for ablation (nil =
	// every pruning and construct+ on). Only the switches change; the
	// Greed++ rung, parallelism and budgets stay with the Query fields
	// above and below.
	Core *CoreExactOptions
	// Deadline is the graceful-degradation time budget for core-exact
	// queries (0 disables it). When the exact search cannot finish within
	// Deadline, Solve returns the best certified approximation held at
	// that moment — Result.Degraded is set and Result.Bound brackets the
	// optimum — instead of an error. Unlike a context deadline, which
	// aborts with ctx.Err(), this budget trades accuracy for latency.
	Deadline time.Duration
	// Gap is the graceful-degradation accuracy budget for core-exact
	// queries (0 demands exactness): the search may stop once the
	// certified interval is within a relative (1+Gap), returning a
	// possibly-Degraded Result whose density d satisfies ρopt ≤ d·(1+Gap).
	Gap float64
	// Anchors are the query vertices of AlgoAnchored (Ψ must be edge).
	Anchors []int32
	// AtLeast is AlgoAtLeast's minimum answer size (≥ 1): the answer is
	// the densest residual of the memoized whole-graph peel that keeps at
	// least AtLeast vertices.
	AtLeast int
	// Eps is AlgoBatchPeel's batch-removal slack (> 0); the answer is a
	// 1/((1+ε)·|VΨ|)-approximation in O(log n / ε) passes.
	Eps float64
	// Version pins the query to one graph version of a mutable Solver
	// (see Solver.Apply): 0 answers on the current head, a positive value
	// on that retained version — Solve fails when it has been evicted.
	// Version participates in Key, so pinned queries never share a cache
	// entry with head queries or with other versions.
	Version Version
}

// Normalized returns q in canonical form — algorithm inferred, clique
// size defaulted — or an error when the query is invalid (unknown
// algorithm, Ψ out of range, a variant parameter without its algorithm
// or vice versa). Solve normalizes internally; callers that echo or key
// queries (the dsdd service, the v2 wire encoding) use Normalized so
// every layer agrees on one canonical form.
func (q Query) Normalized() (Query, error) {
	nq, _, err := q.normalize()
	return nq, err
}

// Psi returns the canonical name of the query's motif ("edge",
// "triangle", "4-clique", "diamond", ...), without validating the rest
// of the query.
func (q Query) Psi() string {
	return q.oracle().Name()
}

// oracle resolves the motif oracle without range validation.
func (q Query) oracle() motif.Oracle {
	if q.Pattern != nil {
		return motif.For(q.Pattern)
	}
	h := q.H
	if h == 0 {
		h = 2
	}
	return motif.Clique{H: h}
}

// normalize infers the algorithm, defaults Ψ, and validates the query.
func (q Query) normalize() (Query, motif.Oracle, error) {
	if q.Algo == "" {
		switch {
		case len(q.Anchors) > 0:
			q.Algo = AlgoAnchored
		case q.AtLeast > 0:
			q.Algo = AlgoAtLeast
		case q.Eps != 0:
			q.Algo = AlgoBatchPeel
		default:
			q.Algo = AlgoCoreExact
		}
	}
	if _, err := ParseAlgo(string(q.Algo)); err != nil {
		return q, nil, err
	}

	if q.Pattern != nil && q.H != 0 {
		return q, nil, fmt.Errorf("dsd: query sets both Pattern (%s) and H (%d); use one", q.Pattern.Name(), q.H)
	}
	if q.Pattern == nil {
		if q.H == 0 {
			q.H = 2
		}
		if q.H < 2 || q.H > 8 {
			return q, nil, fmt.Errorf("dsd: clique size h=%d out of supported range [2,8]", q.H)
		}
	}
	o := q.oracle()

	// Variant parameters and their algorithms must travel together: a
	// parameter without its algorithm (or vice versa) is a mistake, not a
	// default to guess at — and the strictness is what makes Key treat
	// every field as load-bearing.
	switch q.Algo {
	case AlgoAnchored:
		if len(q.Anchors) == 0 {
			return q, nil, fmt.Errorf("dsd: %s needs at least one anchor vertex", AlgoAnchored)
		}
		if c, ok := o.(motif.Clique); !ok || c.H != 2 {
			return q, nil, fmt.Errorf("dsd: %s supports Ψ = edge only, got %s", AlgoAnchored, o.Name())
		}
	case AlgoAtLeast:
		if q.AtLeast < 1 {
			return q, nil, fmt.Errorf("dsd: %s needs AtLeast ≥ 1, got %d", AlgoAtLeast, q.AtLeast)
		}
	case AlgoBatchPeel:
		if q.Eps <= 0 {
			return q, nil, fmt.Errorf("dsd: %s needs Eps > 0, got %v", AlgoBatchPeel, q.Eps)
		}
	}
	if len(q.Anchors) > 0 && q.Algo != AlgoAnchored {
		return q, nil, fmt.Errorf("dsd: Anchors is only meaningful with Algo=%s (got %q)", AlgoAnchored, q.Algo)
	}
	if (q.Deadline != 0 || q.Gap != 0) && q.Algo != AlgoCoreExact {
		return q, nil, fmt.Errorf("dsd: Deadline/Gap are only meaningful with Algo=%s (got %q)", AlgoCoreExact, q.Algo)
	}
	if q.Deadline < 0 {
		return q, nil, fmt.Errorf("dsd: Deadline must be ≥ 0, got %v", q.Deadline)
	}
	if q.Gap < 0 {
		return q, nil, fmt.Errorf("dsd: Gap must be ≥ 0, got %v", q.Gap)
	}
	if q.AtLeast > 0 && q.Algo != AlgoAtLeast {
		return q, nil, fmt.Errorf("dsd: AtLeast is only meaningful with Algo=%s (got %q)", AlgoAtLeast, q.Algo)
	}
	if q.Eps != 0 && q.Algo != AlgoBatchPeel {
		return q, nil, fmt.Errorf("dsd: Eps is only meaningful with Algo=%s (got %q)", AlgoBatchPeel, q.Algo)
	}
	if q.Version < 0 {
		return q, nil, fmt.Errorf("dsd: Version must be ≥ 0 (0 = current head), got %d", q.Version)
	}
	return q, o, nil
}

// CoreExactOptions holds CoreExact's Figure-10 switches for ablation. Each one changes only the work done, never the density.
type CoreExactOptions struct {
	// Pruning1 locates the answer in the (⌈ρ′⌉,Ψ)-core, ρ′ the best
	// residual density seen while peeling; off, the weaker Theorem-1
	// bound ⌈kmax/|VΨ|⌉ locates the core.
	Pruning1 bool
	// Pruning2 refines the location per connected component.
	Pruning2 bool
	// Grouped uses the construct+ grouped flow network (Algorithm 7);
	// meaningful for non-clique patterns only.
	Grouped bool
}

// coreOptions resolves the effective CoreExact options: the engine
// defaults, the Core switches when set, and the Query's own knobs.
func (q Query) coreOptions() core.Options {
	opts := core.DefaultOptions()
	if c := q.Core; c != nil {
		opts.Pruning1, opts.Pruning2, opts.Grouped = c.Pruning1, c.Pruning2, c.Grouped
	}
	opts.Workers = q.Workers
	switch {
	case q.Iterative < 0:
		opts.Iterative = 0
	case q.Iterative > 0:
		opts.Iterative = q.Iterative
	}
	opts.Deadline = q.Deadline
	opts.Gap = q.Gap
	return opts
}

// Key returns the canonical cache-key encoding of q: two queries with
// equal keys denote the same computation on the same graph. Fields the
// selected algorithm ignores are omitted — a peel query keys identically
// for every Workers value — and fields it consumes are all included, so
// queries differing only in anchors, size bound, ε, pruning ablations,
// or parallelism knobs never collide. Patterns are identified by their
// canonical name; custom patterns must therefore use distinct names.
// Invalid queries yield an "invalid|"-prefixed key carrying the error,
// which can never collide with a real computation.
func (q Query) Key() string {
	nq, o, err := q.normalize()
	if err != nil {
		return "invalid|" + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v2|psi=%s|algo=%s", o.Name(), nq.Algo)
	// The version pin selects which graph the computation runs on, for
	// every algorithm. Omitted when zero (head) to keep pre-versioning
	// keys stable.
	if nq.Version != 0 {
		fmt.Fprintf(&b, "|ver=%d", nq.Version)
	}
	switch nq.Algo {
	case AlgoCoreExact:
		opts := nq.coreOptions()
		workers := opts.Workers
		if workers < 1 {
			workers = 1
		}
		// iter stays although Solve ignores it: the stream's Greed++ rung
		// reads it, and existing keys keep their meaning.
		fmt.Fprintf(&b, "|workers=%d|iter=%d|p1=%t|p2=%t|grouped=%t",
			workers, opts.Iterative, opts.Pruning1, opts.Pruning2, opts.Grouped)
		// Degradation budgets change what the computation may return (a
		// certified approximation), so budgeted queries can never share a
		// single-flight entry with exact ones. Omitted when zero to keep
		// pre-degradation keys stable.
		if nq.Deadline != 0 {
			fmt.Fprintf(&b, "|deadline=%s", nq.Deadline)
		}
		if nq.Gap != 0 {
			fmt.Fprintf(&b, "|gap=%g", nq.Gap)
		}
	case AlgoAnchored:
		anchors := append([]int32(nil), nq.Anchors...)
		sort.Slice(anchors, func(i, j int) bool { return anchors[i] < anchors[j] })
		b.WriteString("|anchors=")
		for i, a := range anchors {
			if i > 0 && a == anchors[i-1] {
				continue // the anchored core is a set; duplicates are noise
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", a)
		}
	case AlgoAtLeast:
		fmt.Fprintf(&b, "|atleast=%d", nq.AtLeast)
	case AlgoBatchPeel:
		fmt.Fprintf(&b, "|eps=%g", nq.Eps)
	}
	return b.String()
}
