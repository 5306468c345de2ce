package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/rational"
)

// TestCoreExactIterativeEquivalence: across ~50 random graphs and
// h ∈ {2,3,4}, the default engine — serial and on a worker pool — must
// return exactly the density of the Exact baseline, whose first probe
// starts from a Greed++ witness (rational comparison, not float), with a
// witness whose recomputed density matches. Run under -race this also
// exercises publications racing into the shared bound cell.
func TestCoreExactIterativeEquivalence(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		for h := 2; h <= 4; h++ {
			want := runExact(t, g, motif.Clique{H: h}, false).Density
			serial := DefaultOptions()
			par := DefaultOptions()
			par.Workers = 4
			for mode, opts := range map[string]Options{"serial": serial, "parallel": par} {
				res := coreExact(t, g, motif.Clique{H: h}, opts)
				if res.Density.Cmp(want) != 0 {
					t.Fatalf("graph %d h=%d %s: density %v != exact %v",
						gi, h, mode, res.Density, want)
				}
				if len(res.Vertices) > 0 {
					if d, _ := densityOf(g, motif.Clique{H: h}, res.Vertices); d.Cmp(res.Density) != 0 {
						t.Fatalf("graph %d h=%d %s: witness density %v != reported %v",
							gi, h, mode, d, res.Density)
					}
				}
			}
		}
	}
}

// TestCorePExactIterativeEquivalence extends the obligation to pattern
// cores: CorePExact against the PExact baseline.
func TestCorePExactIterativeEquivalence(t *testing.T) {
	pats := []*pattern.Pattern{pattern.Star(2), pattern.Diamond()}
	gs := equivalenceGraphs(t)[:10]
	for gi, g := range gs {
		for _, p := range pats {
			want := runExact(t, g, motif.For(p), false).Density
			opts := DefaultOptions()
			opts.Workers = 3
			res := coreExact(t, g, motif.For(p), opts)
			if res.Density.Cmp(want) != 0 {
				t.Fatalf("graph %d pattern %s: density %v != exact %v",
					gi, p.Name(), res.Density, want)
			}
		}
	}
}

// TestCoreExactIterativeBudgets: the budget knob must be answer-invariant
// — tiny budgets, the default, and budgets past convergence all return
// the Iterative-0 density.
func TestCoreExactIterativeBudgets(t *testing.T) {
	gs := equivalenceGraphs(t)[:8]
	for gi, g := range gs {
		want := coreExact(t, g, motif.Clique{H: 3}, Options{
			Pruning1: true, Pruning2: true, Grouped: true,
		}).Density // Iterative: 0
		for _, budget := range []int{1, 2, DefaultIterativeBudget, 64} {
			opts := DefaultOptions()
			opts.Iterative = budget
			got := coreExact(t, g, motif.Clique{H: 3}, opts).Density
			if got.Cmp(want) != 0 {
				t.Fatalf("graph %d budget %d: density %v, want %v", gi, budget, got, want)
			}
		}
	}
}

// TestCoreExactIterativePruningVariants runs the Figure-10 pruning
// ablations at the default Iterative budget: the answer must not depend
// on which prunings accompany it, serial or parallel.
func TestCoreExactIterativePruningVariants(t *testing.T) {
	gs := equivalenceGraphs(t)[:6]
	variants := []Options{
		{Pruning1: false, Pruning2: true, Grouped: true, Iterative: DefaultIterativeBudget},
		{Pruning1: true, Pruning2: false, Grouped: true, Iterative: DefaultIterativeBudget},
		{Pruning1: false, Pruning2: false, Grouped: true, Iterative: DefaultIterativeBudget},
	}
	for gi, g := range gs {
		want := runExact(t, g, motif.Clique{H: 3}, false).Density
		for vi, opts := range variants {
			for _, workers := range []int{0, 3} {
				opts.Workers = workers
				got := coreExact(t, g, motif.Clique{H: 3}, opts).Density
				if got.Cmp(want) != 0 {
					t.Fatalf("graph %d variant %d workers %d: density %v, want %v",
						gi, vi, workers, got, want)
				}
			}
		}
	}
}

// TestCoreExactIterativeMultiCommunity pins the stress instance across
// Iterative budgets: the known optimum must come back for every worker
// count, and the serial search must be the Iterative-0 search exactly —
// the same flow probes and networks, with no Greed++ work at all.
func TestCoreExactIterativeMultiCommunity(t *testing.T) {
	const k, clique, fringe, fringeBase = 6, 20, 8, 12
	g := gen.MultiCommunity(k, clique, fringe, fringeBase, 14, 1)
	tmax := int64(fringeBase + k - 1)
	mu := int64(clique*(clique-1)*(clique-2)/6) + int64(fringe)*tmax*(tmax-1)/2
	want := rational.New(mu, int64(clique+fringe))

	seed := DefaultOptions()
	seed.Iterative = 0
	seedRes := coreExact(t, g, motif.Clique{H: 3}, seed)
	if seedRes.Density.Cmp(want) != 0 {
		t.Fatalf("seed engine: density %v, want %v", seedRes.Density, want)
	}
	for _, w := range []int{0, 1, 2, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = w
		res := coreExact(t, g, motif.Clique{H: 3}, opts)
		if res.Density.Cmp(want) != 0 {
			t.Fatalf("workers=%d: density %v, want %v", w, res.Density, want)
		}
		if res.Stats.PreSolveIters != 0 || res.Stats.PreSolveSkips != 0 {
			t.Fatalf("workers=%d: component searches ran Greed++: %+v", w, res.Stats)
		}
		if w <= 1 && (res.Stats.Iterations != seedRes.Stats.Iterations ||
			!slices.Equal(res.Stats.FlowNodes, seedRes.Stats.FlowNodes)) {
			t.Fatalf("workers=%d: flow networks %v, Iterative 0 built %v",
				w, res.Stats.FlowNodes, seedRes.Stats.FlowNodes)
		}
	}
}

// TestCoreExactIterativeStats: every Iterative budget must report zero
// pre-solve work and the same density — the counters the BENCH artifact
// and the wire encoding surface.
func TestCoreExactIterativeStats(t *testing.T) {
	g := gen.ChungLu(80, 320, 2.3, 5)
	seed := DefaultOptions()
	seed.Iterative = 0
	rs := coreExact(t, g, motif.Clique{H: 3}, seed)
	ri := coreExact(t, g, motif.Clique{H: 3}, DefaultOptions())
	for _, r := range []*Result{rs, ri} {
		if r.Stats.PreSolveIters != 0 || r.Stats.PreSolveSkips != 0 || r.Stats.PreSolveTime != 0 {
			t.Fatalf("core-exact reports pre-solve work: %+v", r.Stats)
		}
	}
	if rs.Density.Cmp(ri.Density) != 0 {
		t.Fatalf("density changed: %v vs %v", rs.Density, ri.Density)
	}
}

// TestExactPreSolveSeeding: the whole-graph Exact/PExact baselines now
// seed their binary search from Greed++ bounds (ROADMAP item). The
// density must agree with the flow-only CoreExact seed engine — two
// independent algorithms — and the stats must show the pre-solver ran.
func TestExactPreSolveSeeding(t *testing.T) {
	seed := Options{Pruning1: true, Pruning2: true, Grouped: true}
	for gi, g := range equivalenceGraphs(t)[:10] {
		for h := 2; h <= 3; h++ {
			e := runExact(t, g, motif.Clique{H: h}, false)
			want := coreExact(t, g, motif.Clique{H: h}, seed)
			if e.Density.Cmp(want.Density) != 0 {
				t.Fatalf("graph %d h=%d: seeded Exact density %v != core-exact %v",
					gi, h, e.Density, want.Density)
			}
			if e.Density.IsZero() {
				continue
			}
			if e.Stats.PreSolveIters == 0 {
				t.Fatalf("graph %d h=%d: Exact did not run the pre-solver", gi, h)
			}
		}
	}
	g := equivalenceGraphs(t)[0]
	p := pattern.Star(2)
	pe := runExact(t, g, motif.For(p), false)
	want := coreExact(t, g, motif.For(p), seed)
	if pe.Density.Cmp(want.Density) != 0 {
		t.Fatalf("seeded PExact density %v != core-p-exact %v", pe.Density, want.Density)
	}
	if pe.Stats.PreSolveIters == 0 {
		t.Fatal("PExact did not run the pre-solver")
	}
}

// TestSearchComponentFloorCell: the exported component entrypoint with a
// witness-free floor cell — dsd.Solver.SolveComponent's path — must agree
// with the serial engine when handed the engine's own plan, component by
// component.
func TestSearchComponentFloorCell(t *testing.T) {
	g := gen.MultiCommunity(5, 14, 6, 9, 10, 1)
	o := motif.Clique{H: 3}
	opts := DefaultOptions()
	plan, err := PlanCoreExact(context.Background(), g, o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Components) < 2 {
		t.Fatalf("stress instance yielded %d components", len(plan.Components))
	}
	want := coreExact(t, g, motif.Clique{H: 3}, opts)
	floorAt := func(d rational.R) *Emitter {
		e := NewEmitter(nil)
		e.Improve(d, nil, StageSearch)
		return e
	}

	// Sequential floor-cell execution in plan order reproduces the
	// serial engine's merge exactly.
	best := plan.Lower
	witness := plan.Witness
	for i, comp := range plan.Components {
		out, err := SearchComponent(context.Background(), g, o, plan.Dec, opts, floorAt(best), comp, plan.KLocate)
		if err != nil {
			t.Fatalf("component %d: %v", i, err)
		}
		if len(out.Witness) > 0 {
			if d, _ := densityOf(g, o, out.Witness); d.Cmp(out.Density) != 0 {
				t.Fatalf("component %d: outcome density %v != recomputed %v", i, out.Density, d)
			}
			if out.Density.Greater(best) {
				best = out.Density
				witness = out.Witness
			}
		}
	}
	if best.Cmp(want.Density) != 0 {
		t.Fatalf("merged floor-cell density %v != engine %v", best, want.Density)
	}
	if d, _ := densityOf(g, o, witness); d.Cmp(want.Density) != 0 {
		t.Fatalf("merged witness density %v != engine %v", d, want.Density)
	}

	// A floor already at the optimum means no component can improve: the
	// searches must come back witness-less, never with a worse answer.
	for i, comp := range plan.Components {
		out, err := SearchComponent(context.Background(), g, o, plan.Dec, opts, floorAt(want.Density), comp, plan.KLocate)
		if err != nil {
			t.Fatalf("component %d: %v", i, err)
		}
		if len(out.Witness) != 0 {
			t.Fatalf("component %d: floor at optimum still produced witness %v (density %v)",
				i, out.Witness, out.Density)
		}
	}
}
