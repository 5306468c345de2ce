// Package obs is the repository's zero-dependency observability core:
// phase-level tracing (Tracer/Span, propagated through context), a
// Prometheus-compatible metrics registry (Counter/Gauge/Histogram, exported in text
// exposition format), and structured logging setup (log/slog with a
// human-readable default handler).
//
// The tracer is nil-safe by design: every method on a nil *Tracer or nil
// *Span is a no-op, so the engine hot paths thread spans unconditionally
// and pay nothing — no allocation, no branch beyond the nil check — when
// tracing is off. The service turns tracing on per query; the library
// turns it on for any caller that installs a Tracer in the context via
// WithSpan.
package obs

import "context"

// Span names used across the engine and service layers. One query's
// trace is a tree: query → solve → {decompose, locate, component…}
// with flow children under each component (presolve spans come from
// Exact and the stream's Greed++ rung).
const (
	// SpanQuery is the service engine's root: one computed query,
	// queue wait included.
	SpanQuery = "query"
	// SpanSolve is one dsd.Solver.Solve algorithm run.
	SpanSolve = "solve"
	// SpanDecompose is the (k,Ψ)-core decomposition (Algorithm 4 step 1).
	SpanDecompose = "decompose"
	// SpanLocate is CoreExact's location phase: Pruning1's bound, the
	// component split, and Pruning2's refinement.
	SpanLocate = "locate"
	// SpanPreSolve is one Greed++ run (Exact's starting witness, or the
	// anytime stream's Greed++ rung).
	SpanPreSolve = "presolve"
	// SpanComponent is one per-component flow search.
	SpanComponent = "component"
	// SpanFlow is one flow-network build plus min-cut computation.
	SpanFlow = "flow"
	// SpanMutate is one dsd.Solver.Apply edge-mutation batch: copy-on-write
	// graph build plus incremental memo repair.
	SpanMutate = "mutate"
	// SpanPlan is one core.CoreExact run's ladder: which rungs ran (a
	// unary run only locates and searches; a streamed one may also
	// replay the memo, approximate and run Greed++) and how many
	// components location found.
	SpanPlan = "plan"
)

// ctxKey carries the ambient (tracer, current span) scope.
type ctxKey struct{}

type scope struct {
	t *Tracer
	s *Span
}

// WithSpan returns ctx carrying (t, s) as the ambient trace scope: spans
// started downstream via StartFromContext (or FromContext + Start)
// become children of s. A nil t returns ctx unchanged, so untraced paths
// allocate nothing.
func WithSpan(ctx context.Context, t *Tracer, s *Span) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, scope{t: t, s: s})
}

// FromContext returns the ambient tracer and current span, both nil when
// ctx carries no trace scope — the values feed straight into the
// nil-safe Tracer/Span methods.
func FromContext(ctx context.Context) (*Tracer, *Span) {
	if ctx == nil {
		return nil, nil
	}
	sc, _ := ctx.Value(ctxKey{}).(scope)
	return sc.t, sc.s
}

// StartFromContext starts a span named name under ctx's current span,
// returning nil (a no-op span) when ctx is untraced.
func StartFromContext(ctx context.Context, name string) *Span {
	t, p := FromContext(ctx)
	return t.Start(name, p)
}
