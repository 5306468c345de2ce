package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/psicore"
)

// tracedCoreExact runs CoreExact under a tracer and returns the result
// with the rungs its plan span recorded.
func tracedCoreExact(t *testing.T, g *graph.Graph, o motif.Oracle, opts Options, dec *psicore.Decomposition, st *Stream) (*Result, string) {
	t.Helper()
	tr := obs.New()
	res, err := CoreExact(obs.WithSpan(context.Background(), tr, nil), g, o, opts, dec, st)
	if err != nil {
		t.Fatal(err)
	}
	plans := tr.Snapshot().Named(obs.SpanPlan)
	if len(plans) != 1 {
		t.Fatalf("%d plan spans, want 1", len(plans))
	}
	return res, plans[0].Attrs["rungs"]
}

// TestCoreExactUnaryRunsNoRung: without a receiver, CoreExact runs only
// location and search, even with a Greed++ budget and a seed witness
// that a stream would replay and refine; with one, the same options run
// the memo and iterative rungs.
func TestCoreExactUnaryRunsNoRung(t *testing.T) {
	g := gen.MultiCommunity(8, 25, 10, 15, 18, 1)
	o := motif.Clique{H: 3}
	opts := DefaultOptions()
	opts.SeedWitness = coreExact(t, g, o, opts).Vertices
	if opts.Iterative <= 0 || len(opts.SeedWitness) == 0 {
		t.Fatal("the unary run needs a Greed++ budget and a seed")
	}
	_, rungs := tracedCoreExact(t, g, o, opts, nil, nil)
	if rungs != "plan,search" {
		t.Fatalf("unary run rungs %q, want \"plan,search\"", rungs)
	}
	_, rungs = tracedCoreExact(t, g, o, opts, nil, &Stream{Sink: func(Answer) {}})
	if rungs != "memo,approx,plan,iterative,search" {
		t.Fatalf("streamed run rungs %q, want every rung", rungs)
	}
}

// TestCoreExactStreamMatchesUnary: with a receiver but no rung to run —
// Iterative 0, a supplied decomposition, no seed — the driver searches
// exactly as a unary run does, so the final answer is the unary Result
// bit for bit: witness, Num/Den, probe count and network sizes.
func TestCoreExactStreamMatchesUnary(t *testing.T) {
	g := gen.MultiCommunity(8, 25, 10, 15, 18, 1)
	for _, h := range []int{2, 3, 4} {
		o := motif.Clique{H: h}
		opts := DefaultOptions()
		opts.Iterative = 0
		dec := psicore.Decompose(g, o)
		want, err := CoreExact(context.Background(), g, o, opts, dec, nil)
		if err != nil {
			t.Fatal(err)
		}
		var final Answer
		st := &Stream{Sink: func(a Answer) {
			if a.Final {
				final = a
			}
		}}
		got, rungs := tracedCoreExact(t, g, o, opts, dec, st)
		if rungs != "plan,search" {
			t.Fatalf("h=%d: rungs %q, want \"plan,search\"", h, rungs)
		}
		if got.Density != want.Density || !slices.Equal(got.Vertices, want.Vertices) {
			t.Fatalf("h=%d: stream %v on %v, unary %v on %v", h, got.Density, got.Vertices, want.Density, want.Vertices)
		}
		if got.Stats.Iterations != want.Stats.Iterations || !slices.Equal(got.Stats.FlowNodes, want.Stats.FlowNodes) {
			t.Fatalf("h=%d: stream probes %d %v, unary %d %v", h,
				got.Stats.Iterations, got.Stats.FlowNodes, want.Stats.Iterations, want.Stats.FlowNodes)
		}
		if !final.Final || final.Density != want.Density || !slices.Equal(final.Witness, want.Vertices) {
			t.Fatalf("h=%d: final answer %+v, want the unary result", h, final)
		}
	}
}
