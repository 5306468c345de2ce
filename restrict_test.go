package dsd_test

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"testing"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/motif"
	"repro/internal/obs"
)

// plantedCliqueGraph is a ChungLu(300, 900) graph with a clique planted
// on its first q vertices.
func plantedCliqueGraph(seed int64, q int) *dsd.Graph {
	g := dsd.GenerateChungLu(300, 900, 2.2, seed)
	b := dsd.NewBuilder(g.N())
	g.Edges(func(u, v int) { b.AddEdge(u, v) })
	for u := 0; u < q; u++ {
		for v := u + 1; v < q; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestRestrictedDecompositionStaysOutOfPeelMemo pins memo isolation: a
// cold core-exact clique solve, by Solve or by StreamFunc, counts and
// peels only a classical core (its decompose span says which level and
// how many vertices), and must leave nothing that AlgoPeel or AlgoInc on
// the same Solver would read as a whole-graph peel. Both must answer
// exactly like a fresh Solver's: the same vertices and the same
// Density.Num/Den. On both triangle graphs and on the edge graph (a K12
// planted) the restricted peel's best residual is another vertex set
// than the whole-graph peel's, so a leak would change PeelApp's answer.
func TestRestrictedDecompositionStaysOutOfPeelMemo(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		h    int
		seed int64
		q    int
	}{{2, 10, 12}, {3, 10, 10}, {3, 261, 8}, {4, 10, 10}} {
		g, h := plantedCliqueGraph(tc.seed, tc.q), tc.h
		for _, cold := range []string{"solve", "stream"} {
			s := dsd.NewSolver(g)
			tr := obs.New()
			tctx := obs.WithSpan(ctx, tr, nil)
			q := dsd.Query{H: h}
			var err error
			if cold == "solve" {
				_, err = s.Solve(tctx, q)
			} else {
				_, err = s.StreamFunc(tctx, q, func(dsd.Answer) {})
			}
			if err != nil {
				t.Fatalf("h=%d cold %s: %v", h, cold, err)
			}
			decs := tr.Snapshot().Named(obs.SpanDecompose)
			if len(decs) != 1 {
				t.Fatalf("h=%d cold %s: %d decompose spans, want 1", h, cold, len(decs))
			}
			counted, err := strconv.Atoi(decs[0].Attrs["counted_vertices"])
			if err != nil || counted <= 0 || counted >= g.N() || decs[0].Attrs["classical_level"] == "" {
				t.Fatalf("h=%d cold %s: decompose span attrs %v, want a restriction to fewer than %d vertices",
					h, cold, decs[0].Attrs, g.N())
			}
			for _, algo := range []dsd.Algo{dsd.AlgoPeel, dsd.AlgoInc} {
				pq := dsd.Query{H: h, Algo: algo}
				got, err := s.Solve(ctx, pq)
				if err != nil {
					t.Fatalf("h=%d cold %s, then %s: %v", h, cold, algo, err)
				}
				want, err := dsd.NewSolver(g).Solve(ctx, pq)
				if err != nil {
					t.Fatalf("h=%d fresh %s: %v", h, algo, err)
				}
				if !slices.Equal(got.Vertices, want.Vertices) ||
					got.Density.Num != want.Density.Num || got.Density.Den != want.Density.Den {
					t.Fatalf("h=%d cold %s, then %s: %d/%d on %d vertices, fresh Solver %d/%d on %d",
						h, cold, algo, got.Density.Num, got.Density.Den, len(got.Vertices),
						want.Density.Num, want.Density.Den, len(want.Vertices))
				}
			}
		}
	}
}

// TestRestrictedDecompositionConcurrent races the readers and writers of
// the restricted memo on one cold Solver (run under -race): core-exact
// solves, streams and component plans, which compute or read it, beside
// peel queries, which must not read it. Every answer must match a fresh
// Solver's in value.
func TestRestrictedDecompositionConcurrent(t *testing.T) {
	ctx := context.Background()
	g := plantedCliqueGraph(10, 10)
	want := map[dsd.Algo]*dsd.Result{}
	for _, algo := range []dsd.Algo{dsd.AlgoCoreExact, dsd.AlgoPeel} {
		res, err := dsd.NewSolver(g).Solve(ctx, dsd.Query{H: 3, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		want[algo] = res
	}
	s := dsd.NewSolver(g)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				res  *dsd.Result
				err  error
				algo = dsd.AlgoCoreExact
			)
			switch i % 4 {
			case 0:
				res, err = s.Solve(ctx, dsd.Query{H: 3})
			case 1:
				res, err = s.StreamFunc(ctx, dsd.Query{H: 3}, func(dsd.Answer) {})
			case 2:
				var plan *dsd.ComponentPlan
				if plan, err = s.PlanComponents(ctx, dsd.Query{H: 3}); err == nil {
					res, err = s.EvaluateWitness(dsd.Query{H: 3}, plan.Witness)
					if err == nil && res.Density.Greater(want[algo].Density) {
						t.Errorf("plan witness %v beats the optimum %v", res.Density, want[algo].Density)
					}
					return
				}
			case 3:
				algo = dsd.AlgoPeel
				res, err = s.Solve(ctx, dsd.Query{H: 3, Algo: algo})
			}
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			if res.Density.Cmp(want[algo].Density) != 0 {
				t.Errorf("goroutine %d %s: density %v, fresh Solver %v", i, algo, res.Density, want[algo].Density)
			}
		}()
	}
	wg.Wait()
}

// decomposeAttrs runs fn under a fresh trace and returns the attributes
// of the one decompose span it records.
func decomposeAttrs(t *testing.T, what string, fn func(ctx context.Context) error) map[string]string {
	t.Helper()
	tr := obs.New()
	if err := fn(obs.WithSpan(context.Background(), tr, nil)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	decs := tr.Snapshot().Named(obs.SpanDecompose)
	if len(decs) != 1 {
		t.Fatalf("%s: %d decompose spans, want 1", what, len(decs))
	}
	return decs[0].Attrs
}

// TestRestrictionFollowsPruning1 pins that a cold core-exact clique run
// restricts, by Solve and by StreamFunc alike: the restriction rests on
// Pruning1's lower bound, which every core-exact query runs with, and it
// still answers the optimum. internal/core's TestCoreExactPruningVariants
// holds the runs without Pruning1 to the same optimum.
func TestRestrictionFollowsPruning1(t *testing.T) {
	g := plantedCliqueGraph(10, 10)
	want, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3, Algo: dsd.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	q := dsd.Query{H: 3, Algo: dsd.AlgoCoreExact}
	for _, stream := range []bool{false, true} {
		what := "solve"
		if stream {
			what = "stream"
		}
		s := dsd.NewSolver(g)
		var res *dsd.Result
		attrs := decomposeAttrs(t, what, func(ctx context.Context) (err error) {
			if stream {
				res, err = s.StreamFunc(ctx, q, func(dsd.Answer) {})
			} else {
				res, err = s.Solve(ctx, q)
			}
			return err
		})
		if _, ok := attrs["counted_vertices"]; !ok {
			t.Fatalf("%s: decompose span %v, want a restricted decomposition", what, attrs)
		}
		if res.Density.Cmp(want.Density) != 0 {
			t.Fatalf("%s: density %v, optimum %v", what, res.Density, want.Density)
		}
	}
}

// solveByComponents answers q through the component surface: a plan,
// one SolveComponent per component sharing one floor, and the best
// witness's evaluation.
func solveByComponents(t *testing.T, s *dsd.Solver, q dsd.Query) *dsd.Result {
	t.Helper()
	ctx := context.Background()
	plan, err := s.PlanComponents(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	bestNum, bestDen, best := plan.LowerNum, plan.LowerDen, plan.Witness
	floor := dsd.NewComponentFloor(bestNum, bestDen)
	for _, comp := range plan.Components {
		cr, err := s.SolveComponent(ctx, q, comp, plan.KLocate, floor)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Witness != nil && (bestDen == 0 || cr.DensityNum*bestDen > bestNum*cr.DensityDen) {
			bestNum, bestDen, best = cr.DensityNum, cr.DensityDen, cr.Witness
			floor.Raise(bestNum, bestDen)
		}
	}
	res, err := s.EvaluateWitness(q, best)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestComponentSurfaceLocatesLikeSolve pins that every core-exact entry
// point takes the same decomposition from a version's memo. On a version
// made by Mutate, which carries the parent's core numbers as upper bounds,
// Solve, PlanComponents and SolveComponent all locate on those (bounded),
// and a plan-then-components run answers what Solve and a rebuild
// answer. Once a peel query has peeled the version, all three read that
// exact peel instead.
func TestComponentSurfaceLocatesLikeSolve(t *testing.T) {
	ctx := context.Background()
	g := dsd.GenerateMultiCommunity(6, 18, 8, 11, 12, 1)
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3}
	if _, err := s.Solve(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(ctx, dsd.Mutation{Insert: [][2]int{{0, g.N()}, {1, g.N()}}}); err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanComponents(ctx, q)
	if err != nil || len(plan.Components) == 0 {
		t.Fatalf("plan: %v, %d components", err, len(plan.Components))
	}
	steps := []struct {
		what string
		run  func(ctx context.Context) error
	}{
		{"solve", func(ctx context.Context) error { _, err := s.Solve(ctx, q); return err }},
		{"plan", func(ctx context.Context) error { _, err := s.PlanComponents(ctx, q); return err }},
		{"component", func(ctx context.Context) error {
			_, err := s.SolveComponent(ctx, q, plan.Components[0], plan.KLocate, nil)
			return err
		}},
	}
	for _, bounded := range []bool{true, false} {
		for _, step := range steps {
			attrs := decomposeAttrs(t, step.what, step.run)
			if attrs["reused"] != "true" || (attrs["bounded"] == "true") != bounded {
				t.Fatalf("%s: decompose span %v, want reused bounded=%v", step.what, attrs, bounded)
			}
		}
		got := solveByComponents(t, s, q)
		solved, err := s.Solve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameDensity(t, "components against Solve", got, solved)
		cold, err := dsd.NewSolver(rebuild(s.Graph())).Solve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameDensity(t, "components against a rebuild", got, cold)
		if _, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoPeel}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClassicalDecompositionOncePerVersion pins the version's one
// classical k-core decomposition: whichever of CoreApp (h ≥ 3), a cold
// stream's CoreApp rung and an anchored query reads it first computes
// it, and the others reuse it. A core-exact restriction reading the
// memoized cores locates at the same classical level, and answers the
// same density, as a cold one finding its own high cores.
func TestClassicalDecompositionOncePerVersion(t *testing.T) {
	ctx := context.Background()
	anchored := dsd.Query{Anchors: []int32{0, 1}}
	g := plantedCliqueGraph(10, 10)
	for _, first := range []struct {
		what string
		run  func(s *dsd.Solver) error
	}{
		{"core-app", func(s *dsd.Solver) error {
			_, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoCoreApp})
			return err
		}},
		{"stream", func(s *dsd.Solver) error {
			_, err := s.StreamFunc(ctx, dsd.Query{H: 3}, func(dsd.Answer) {})
			return err
		}},
	} {
		s := dsd.NewSolver(g)
		if err := first.run(s); err != nil {
			t.Fatalf("%s: %v", first.what, err)
		}
		res, err := s.Solve(ctx, anchored)
		if err != nil {
			t.Fatalf("%s, then anchored: %v", first.what, err)
		}
		if !res.Stats.ReusedDecomposition {
			t.Fatalf("%s, then anchored: the version's classical cores were computed again", first.what)
		}
	}

	for _, tc := range []struct {
		h     int
		q     int
		first dsd.Query
	}{
		{2, 12, anchored},
		{3, 10, dsd.Query{H: 3, Algo: dsd.AlgoCoreApp}},
	} {
		g := plantedCliqueGraph(10, tc.q)
		q := dsd.Query{H: tc.h}
		var cold, warm *dsd.Result
		coldAttrs := decomposeAttrs(t, "cold", func(ctx context.Context) (err error) {
			cold, err = dsd.NewSolver(g).Solve(ctx, q)
			return err
		})
		s := dsd.NewSolver(g)
		if _, err := s.Solve(ctx, tc.first); err != nil {
			t.Fatal(err)
		}
		warmAttrs := decomposeAttrs(t, "memoized cores", func(ctx context.Context) (err error) {
			warm, err = s.Solve(ctx, q)
			return err
		})
		if coldAttrs["classical_level"] == "" || warmAttrs["classical_level"] != coldAttrs["classical_level"] {
			t.Fatalf("h=%d: restriction on memoized cores %v, cold %v", tc.h, warmAttrs, coldAttrs)
		}
		sameDensity(t, "restriction on memoized cores", warm, cold)
	}
}

// TestEdgeRestrictionMatchesWholeGraph: a cold core-exact edge solve
// peels only the classical core that can hold the answer wherever the
// size rule admits it (its decompose span carries classical_level), and
// answers exactly as core.CoreExact on the whole-graph peel does: the
// same Density.Num/Den, the same sorted witness, and the same flow
// probes and network sizes. The corpus is TestFlowProbeCounts', whose
// classical x-cores all hold more than half of the adjacency, plus the
// full-size Ca-HepTh and As-Caida stand-ins, whose x-cores hold 0.64 and
// 0.28 of it.
func TestEdgeRestrictionMatchesWholeGraph(t *testing.T) {
	stand := func(name string, div int) *dsd.Graph {
		spec, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.LoadDiv(div)
	}
	o := motif.Clique{H: 2}
	for _, c := range []struct {
		name       string
		g          *dsd.Graph
		restricted bool
	}{
		{"multicommunity", gen.MultiCommunity(8, 25, 10, 15, 18, 1), false},
		{"Ca-HepTh/8", stand("Ca-HepTh", 8), false},
		{"As-Caida/8", stand("As-Caida", 8), false},
		{"Ca-HepTh", stand("Ca-HepTh", 1), true},
		{"As-Caida", stand("As-Caida", 1), true},
	} {
		var got *dsd.Result
		attrs := decomposeAttrs(t, c.name, func(ctx context.Context) (err error) {
			got, err = dsd.NewSolver(c.g).Solve(ctx, dsd.Query{H: 2, Algo: dsd.AlgoCoreExact})
			return err
		})
		if _, ok := attrs["classical_level"]; ok != c.restricted {
			t.Errorf("%s: decompose span %v, want restricted=%v", c.name, attrs, c.restricted)
		}
		want, err := core.CoreExact(context.Background(), c.g, o, core.DefaultOptions(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		gv, wv := slices.Sorted(slices.Values(got.Vertices)), slices.Sorted(slices.Values(want.Vertices))
		if got.Density.Num != want.Density.Num || got.Density.Den != want.Density.Den || !slices.Equal(gv, wv) {
			t.Errorf("%s: %d/%d on %d vertices, whole-graph peel %d/%d on %d", c.name,
				got.Density.Num, got.Density.Den, len(gv), want.Density.Num, want.Density.Den, len(wv))
		}
		if got.Stats.Iterations != want.Stats.Iterations || !slices.Equal(got.Stats.FlowNodes, want.Stats.FlowNodes) {
			t.Errorf("%s: flow networks %v, whole-graph peel %v", c.name, got.Stats.FlowNodes, want.Stats.FlowNodes)
		}
	}
}
