package iterative_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/rational"
)

// witnessDensity recomputes the exact density of a witness (local ids of
// g) from scratch, so the solver's bookkeeping is checked against an
// independent count.
func witnessDensity(g *graph.Graph, o motif.Oracle, vs []int32) rational.R {
	if len(vs) == 0 {
		return rational.Zero
	}
	sub := g.Induced(vs)
	return rational.New(motif.Count(o, sub.Graph), int64(len(sub.Orig)))
}

// TestSolverBoundsBracketOptimum is the certificate obligation: across
// random graphs and h ∈ {2,3,4}, lower ≤ ρopt ≤ upper with the exact
// optimum from the flow-based Exact baseline, and the lower bound must be
// the recomputed density of the witness the solver hands back.
func TestSolverBoundsBracketOptimum(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := gen.GNM(50, 200, seed)
		for h := 2; h <= 4; h++ {
			o := motif.Clique{H: h}
			s := iterative.New(g, o)
			if err := s.Run(context.Background(), 8); err != nil {
				t.Fatal(err)
			}
			opt := exactDensity(t, g, motif.Clique{H: h})
			lb, wit := s.Lower()
			ub := s.Upper()
			if lb.Greater(opt) {
				t.Fatalf("seed %d h=%d: lower %v above optimum %v", seed, h, lb, opt)
			}
			if opt.Greater(ub) {
				t.Fatalf("seed %d h=%d: upper %v below optimum %v", seed, h, ub, opt)
			}
			if d := witnessDensity(g, o, wit); d.Cmp(lb) != 0 {
				t.Fatalf("seed %d h=%d: witness density %v != reported lower %v", seed, h, d, lb)
			}
			// UpperFloat must never round below the exact certificate.
			if ub.CmpFloat(s.UpperFloat()) > 0 {
				t.Fatalf("seed %d h=%d: UpperFloat %v below exact upper %v", seed, h, s.UpperFloat(), ub)
			}
		}
	}
}

// TestSolverBoundsPatterns extends the bracket obligation to non-clique
// oracles (star and diamond run through the pattern machinery end to end).
func TestSolverBoundsPatterns(t *testing.T) {
	pats := []*pattern.Pattern{pattern.Star(2), pattern.Diamond()}
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.ChungLu(60, 220, 2.3, seed)
		for _, p := range pats {
			o := motif.For(p)
			s := iterative.New(g, o)
			if err := s.Run(context.Background(), 6); err != nil {
				t.Fatal(err)
			}
			opt := exactDensity(t, g, motif.For(p))
			lb, wit := s.Lower()
			if lb.Greater(opt) {
				t.Fatalf("seed %d %s: lower %v above optimum %v", seed, p.Name(), lb, opt)
			}
			if opt.Greater(s.Upper()) {
				t.Fatalf("seed %d %s: upper %v below optimum %v", seed, p.Name(), s.Upper(), opt)
			}
			if d := witnessDensity(g, o, wit); d.Cmp(lb) != 0 {
				t.Fatalf("seed %d %s: witness density %v != lower %v", seed, p.Name(), d, lb)
			}
		}
	}
}

// TestSolverLowerMonotone checks that more iterations never loosen the
// lower bound and never let the upper bound fall below it — the monotone
// tightening the pre-solve integration relies on across Run calls.
func TestSolverLowerMonotone(t *testing.T) {
	g := gen.ChungLu(80, 320, 2.5, 3)
	s := iterative.New(g, motif.Clique{H: 3})
	prev := rational.Zero
	for step := 0; step < 6; step++ {
		if err := s.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
		lb, _ := s.Lower()
		if prev.Greater(lb) {
			t.Fatalf("step %d: lower bound fell from %v to %v", step, prev, lb)
		}
		if lb.Greater(s.Upper()) {
			t.Fatalf("step %d: upper %v below lower %v", step, s.Upper(), lb)
		}
		prev = lb
	}
}

// TestSolverCancellation: a cancelled context stops Run with its error and
// leaves the solver usable (bounds from completed iterations intact).
func TestSolverCancellation(t *testing.T) {
	g := gen.ChungLu(100, 400, 2.5, 7)
	s := iterative.New(g, motif.Clique{H: 3})
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	lb, _ := s.Lower()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Run(ctx, 4); err != context.Canceled {
		t.Fatalf("Run under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if after, _ := s.Lower(); after.Cmp(lb) < 0 {
		t.Fatalf("cancellation lost the lower bound: %v -> %v", lb, after)
	}
}

// TestSolverEmptyAndTrivial covers the degenerate inputs the component
// search can hand the solver.
func TestSolverEmptyAndTrivial(t *testing.T) {
	empty := gen.GNM(5, 0, 1)
	s := iterative.New(empty, motif.Clique{H: 3})
	if err := s.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if lb, _ := s.Lower(); !lb.IsZero() {
		t.Fatalf("empty graph lower = %v, want zero", lb)
	}
	if s.Total() != 0 {
		t.Fatalf("empty graph total = %d", s.Total())
	}

	// A single triangle: both bounds collapse to the optimum 1/3.
	tri := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	s = iterative.New(tri, motif.Clique{H: 3})
	if err := s.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	want := rational.New(1, 3)
	if lb, _ := s.Lower(); lb.Cmp(want) != 0 {
		t.Fatalf("triangle lower = %v, want %v", lb, want)
	}
	if ub := s.Upper(); want.Greater(ub) {
		t.Fatalf("triangle upper = %v, below %v", ub, want)
	}
}

// TestRunAdaptiveCertificates: the adaptive runner must preserve the
// certificate contract at whatever iteration count it stops at — bounds
// bracket the optimum, the witness recomputes to the lower bound — while
// never exceeding the budget.
func TestRunAdaptiveCertificates(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.GNM(50, 200, seed)
		for h := 2; h <= 3; h++ {
			o := motif.Clique{H: h}
			s := iterative.New(g, o)
			ran, err := s.RunAdaptive(context.Background(), 64)
			if err != nil {
				t.Fatal(err)
			}
			if ran < 1 || ran > 64 {
				t.Fatalf("seed %d h=%d: ran %d iterations, budget 64", seed, h, ran)
			}
			if s.Iterations() != ran {
				t.Fatalf("seed %d h=%d: Iterations() = %d, ran = %d", seed, h, s.Iterations(), ran)
			}
			opt := exactDensity(t, g, motif.Clique{H: h})
			lb, wit := s.Lower()
			if lb.Greater(opt) {
				t.Fatalf("seed %d h=%d: adaptive lower %v above optimum %v", seed, h, lb, opt)
			}
			if opt.Greater(s.Upper()) {
				t.Fatalf("seed %d h=%d: adaptive upper %v below optimum %v", seed, h, s.Upper(), opt)
			}
			if d := witnessDensity(g, o, wit); d.Cmp(lb) != 0 {
				t.Fatalf("seed %d h=%d: witness density %v != lower %v", seed, h, d, lb)
			}
		}
	}
}

// TestRunAdaptiveStopsEarlyOnTinyInstances: a component with a handful
// of Ψ-instances must stop far short of a large budget — the overhead
// reclamation the adaptive chunking exists for.
func TestRunAdaptiveStopsEarlyOnTinyInstances(t *testing.T) {
	// A single triangle: the bounds converge (gap stalls at zero or a
	// constant) within the first chunks.
	tri := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	s := iterative.New(tri, motif.Clique{H: 3})
	ran, err := s.RunAdaptive(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if ran > 8 {
		t.Fatalf("tiny instance ran %d of 256 budgeted iterations; adaptive stop did not fire", ran)
	}
	if lb, _ := s.Lower(); lb.Cmp(rational.New(1, 3)) != 0 {
		t.Fatalf("early stop lost the optimum: lower = %v", lb)
	}

	// Zero/negative budgets run nothing.
	if ran, _ := s.RunAdaptive(context.Background(), 0); ran != 0 {
		t.Fatalf("budget 0 ran %d iterations", ran)
	}
}

// TestRunAdaptiveCancellation mirrors Run's contract: a cancelled ctx
// surfaces, reporting the iterations that completed.
func TestRunAdaptiveCancellation(t *testing.T) {
	g := gen.GNM(40, 150, 3)
	s := iterative.New(g, motif.Clique{H: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran, err := s.RunAdaptive(ctx, 8)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("cancelled run reported %d iterations", ran)
	}
}

// exactDensity is core.Exact's optimum density, failing the test on error.
func exactDensity(t *testing.T, g *graph.Graph, o motif.Oracle) rational.R {
	t.Helper()
	res, err := core.Exact(g, o, false)
	if err != nil {
		t.Fatal(err)
	}
	return res.Density
}
