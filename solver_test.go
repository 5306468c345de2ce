package dsd_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/motif"
)

// solverEquivalenceGraphs mirrors the randomized mix the core package's
// equivalence suites use (~50 graphs), through the public generators.
func solverEquivalenceGraphs(tb testing.TB) []*dsd.Graph {
	tb.Helper()
	var gs []*dsd.Graph
	for seed := int64(1); seed <= 17; seed++ {
		gs = append(gs, dsd.GenerateGNM(60, 250, seed))
	}
	for seed := int64(1); seed <= 17; seed++ {
		gs = append(gs, dsd.GenerateChungLu(80, 320, 2.3, seed))
	}
	for seed := int64(1); seed <= 16; seed++ {
		gs = append(gs, dsd.GenerateSSCA(70, 8, seed))
	}
	return gs
}

// coreExact runs core.CoreExact with default options on a fresh
// decomposition.
func coreExact(t testing.TB, g *dsd.Graph, o motif.Oracle) *core.Result {
	t.Helper()
	res, err := core.CoreExact(context.Background(), g, o, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSolveMatchesCoreAlgorithms is the redesign's proof obligation: for
// every algorithm, Solve must return bit-identical densities to the
// underlying core entrypoints called directly, each computing its own
// state — cold
// (first query computes the Ψ-state) and warm (second query reuses it).
func TestSolveMatchesCoreAlgorithms(t *testing.T) {
	ctx := context.Background()
	for gi, g := range solverEquivalenceGraphs(t) {
		for h := 2; h <= 3; h++ {
			o := motif.Clique{H: h}
			exact, err := core.Exact(g, o, false)
			if err != nil {
				t.Fatal(err)
			}
			want := map[dsd.Algo]*core.Result{
				dsd.AlgoExact:     exact,
				dsd.AlgoCoreExact: coreExact(t, g, o),
				dsd.AlgoPeel:      core.PeelApp(g, o, nil),
				dsd.AlgoInc:       core.IncApp(g, o, nil),
				dsd.AlgoCoreApp:   core.CoreApp(g, o, nil),
				dsd.AlgoNucleus:   core.Nucleus(g, o, nil),
			}
			s := dsd.NewSolver(g)
			for pass := 0; pass < 2; pass++ {
				for algo, w := range want {
					res, err := s.Solve(ctx, dsd.Query{H: h, Algo: algo})
					if err != nil {
						t.Fatalf("graph %d h=%d %s pass %d: %v", gi, h, algo, pass, err)
					}
					if res.Density.Cmp(w.Density) != 0 {
						t.Fatalf("graph %d h=%d %s pass %d: density %v, want %v",
							gi, h, algo, pass, res.Density, w.Density)
					}
					if res.Mu != w.Mu {
						t.Fatalf("graph %d h=%d %s pass %d: µ=%d, want %d", gi, h, algo, pass, res.Mu, w.Mu)
					}
					// The warm pass must be served from the memo for the
					// decomposition-backed algorithms.
					decAlgos := algo == dsd.AlgoCoreExact || algo == dsd.AlgoPeel ||
						algo == dsd.AlgoInc || algo == dsd.AlgoNucleus
					if pass == 1 && decAlgos {
						if !res.Stats.ReusedDecomposition {
							t.Fatalf("graph %d h=%d %s: warm pass did not reuse the decomposition", gi, h, algo)
						}
						if res.Stats.Decompose != 0 {
							t.Fatalf("graph %d h=%d %s: warm pass still spent %v decomposing", gi, h, algo, res.Stats.Decompose)
						}
					}
				}
			}
		}
	}
}

// TestSolvePatternsMatchCore extends the obligation to pattern motifs.
func TestSolvePatternsMatchCore(t *testing.T) {
	ctx := context.Background()
	gs := solverEquivalenceGraphs(t)[:10]
	patterns := []string{"2-star", "diamond"}
	for gi, g := range gs {
		s := dsd.NewSolver(g)
		for _, name := range patterns {
			p, err := dsd.PatternByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want := coreExact(t, g, motif.For(p))
			for pass := 0; pass < 2; pass++ {
				res, err := s.Solve(ctx, dsd.Query{Pattern: p})
				if err != nil {
					t.Fatalf("graph %d %s pass %d: %v", gi, name, pass, err)
				}
				if res.Density.Cmp(want.Density) != 0 {
					t.Fatalf("graph %d %s pass %d: density %v, want %v", gi, name, pass, res.Density, want.Density)
				}
			}
		}
	}
}

// TestSolveVariantsMatchCore checks the problem variants (anchored,
// at-least-k, batch-peel) against their core implementations, cold and
// warm.
func TestSolveVariantsMatchCore(t *testing.T) {
	ctx := context.Background()
	gs := solverEquivalenceGraphs(t)[:12]
	p, _ := dsd.PatternByName("triangle")
	o := motif.Clique{H: 3}
	for gi, g := range gs {
		s := dsd.NewSolver(g)

		wantAnchored, err := core.QueryDensest(g, []int32{0, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantAtLeast, err := core.PeelAppAtLeast(g, o, 5, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBatch, err := core.BatchPeel(g, o, 0.25, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			anch, err := s.Solve(ctx, dsd.Query{Anchors: []int32{0, 1}})
			if err != nil {
				t.Fatalf("graph %d anchored pass %d: %v", gi, pass, err)
			}
			if anch.Density.Cmp(wantAnchored.Density) != 0 {
				t.Fatalf("graph %d anchored pass %d: density %v, want %v", gi, pass, anch.Density, wantAnchored.Density)
			}
			atl, err := s.Solve(ctx, dsd.Query{Pattern: p, AtLeast: 5})
			if err != nil {
				t.Fatalf("graph %d at-least pass %d: %v", gi, pass, err)
			}
			if atl.Density.Cmp(wantAtLeast.Density) != 0 {
				t.Fatalf("graph %d at-least pass %d: density %v, want %v", gi, pass, atl.Density, wantAtLeast.Density)
			}
			bp, err := s.Solve(ctx, dsd.Query{Pattern: p, Eps: 0.25})
			if err != nil {
				t.Fatalf("graph %d batch-peel pass %d: %v", gi, pass, err)
			}
			if bp.Density.Cmp(wantBatch.Density) != 0 {
				t.Fatalf("graph %d batch-peel pass %d: density %v, want %v", gi, pass, bp.Density, wantBatch.Density)
			}
			if pass == 1 {
				if !anch.Stats.ReusedDecomposition {
					t.Fatalf("graph %d: warm anchored query did not reuse the k-core", gi)
				}
				if !atl.Stats.ReusedDegrees || !bp.Stats.ReusedDegrees {
					t.Fatalf("graph %d: warm degree-backed variants did not reuse degrees (atleast=%t batch=%t)",
						gi, atl.Stats.ReusedDegrees, bp.Stats.ReusedDegrees)
				}
			}
		}
	}
}

// TestSolverWarmReuse pins the tentpole's hot path on the multi-community
// stress instance: the second same-Ψ query must skip the decomposition
// entirely (flow-free stats prove the reuse) and return the identical
// density, and pruning ablations keyed differently must still share the
// same memoized state.
func TestSolverWarmReuse(t *testing.T) {
	g := dsd.GenerateMultiCommunity(6, 20, 8, 12, 15, 1)
	s := dsd.NewSolver(g)
	ctx := context.Background()

	cold, err := s.Solve(ctx, dsd.Query{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.ReusedDecomposition {
		t.Fatal("cold query claims a reused decomposition")
	}
	if cold.Stats.Decompose <= 0 {
		t.Fatal("cold query reports no decomposition time")
	}

	warm, err := s.Solve(ctx, dsd.Query{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.ReusedDecomposition {
		t.Fatal("warm query did not reuse the decomposition")
	}
	if warm.Stats.Decompose != 0 {
		t.Fatalf("warm query spent %v decomposing", warm.Stats.Decompose)
	}
	if warm.Density.Cmp(cold.Density) != 0 {
		t.Fatalf("warm density %v != cold %v", warm.Density, cold.Density)
	}

	// A different algorithm on the same Ψ rides the same memo.
	peel, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoPeel})
	if err != nil {
		t.Fatal(err)
	}
	if !peel.Stats.ReusedDecomposition {
		t.Fatal("same-Ψ peel query did not reuse the decomposition")
	}
	// A different Ψ does not.
	eds, err := s.Solve(ctx, dsd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if eds.Stats.ReusedDecomposition {
		t.Fatal("edge query claims to reuse the triangle decomposition")
	}
}

// TestSolverConcurrentSameQuery hammers one Solver from many goroutines
// (run under -race): the memo must be computed safely and every answer
// must be identical.
func TestSolverConcurrentSameQuery(t *testing.T) {
	g := dsd.GenerateChungLu(200, 800, 2.5, 3)
	s := dsd.NewSolver(g)
	want, err := s.Solve(context.Background(), dsd.Query{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		algo := dsd.AlgoCoreExact
		if i%2 == 1 {
			algo = dsd.AlgoPeel
		}
		wg.Add(1)
		go func(algo dsd.Algo) {
			defer wg.Done()
			res, err := s.Solve(context.Background(), dsd.Query{H: 3, Algo: algo})
			if err != nil {
				errs <- err
				return
			}
			if algo == dsd.AlgoCoreExact && res.Density.Cmp(want.Density) != 0 {
				errs <- context.DeadlineExceeded // never: placeholder error
			}
		}(algo)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSolveOrphanFinishesAndIsDropped pins the await contract the Query
// and Solve docs promise: cancelling a non-preemptible algorithm returns
// ctx.Err() promptly, while the discarded computation finishes on its
// background goroutine, is counted as an orphan, and its goroutine
// drains — no silent leak.
func TestSolveOrphanFinishesAndIsDropped(t *testing.T) {
	// Sized so the non-preemptible peel runs for tens of milliseconds:
	// the cancel below lands mid-computation, not after it.
	g := dsd.GenerateChungLu(5000, 40000, 2.5, 9)
	s := dsd.NewSolver(g)
	before := dsd.AwaitOrphans()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// AlgoPeel is not preemptible: its decomposition runs detached.
		_, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoPeel})
		errc <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if err == nil {
			t.Skip("computation finished before the cancel landed; nothing to orphan")
		}
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Solve never returned")
	}

	// The orphan must finish and be dropped: the counter advances and the
	// goroutine count returns to its baseline.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if dsd.AwaitOrphans() > before && runtime.NumGoroutine() <= baseline {
			// The orphan's finished work also warmed the Solver: a repeat
			// query now reuses the decomposition it computed.
			res, err := s.Solve(context.Background(), dsd.Query{H: 3, Algo: dsd.AlgoPeel})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.ReusedDecomposition {
				t.Fatal("orphaned computation did not populate the memo")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("orphan never finished: orphans %d→%d, goroutines %d→%d",
		before, dsd.AwaitOrphans(), baseline, runtime.NumGoroutine())
}

func TestParseAlgo(t *testing.T) {
	for _, name := range []string{"exact", "core-exact", "peel", "inc", "core-app", "nucleus", "anchored", "batch-peel", "at-least"} {
		a, err := dsd.ParseAlgo(name)
		if err != nil {
			t.Fatalf("ParseAlgo(%q): %v", name, err)
		}
		if string(a) != name {
			t.Fatalf("ParseAlgo(%q) = %q", name, a)
		}
	}
	_, err := dsd.ParseAlgo("bogus")
	if err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	for _, want := range []string{"bogus", "exact", "core-exact", "anchored", "batch-peel", "at-least"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseAlgo error %q does not mention %q", err, want)
		}
	}
}

func TestQueryKey(t *testing.T) {
	// Canonicalization: different spellings of the same computation agree.
	triangle, _ := dsd.PatternByName("triangle")
	same := [][2]dsd.Query{
		{{H: 3}, {Pattern: triangle}},
		{{H: 3}, {H: 3, Algo: dsd.AlgoCoreExact}},
		{{}, {H: 2}},
		{{H: 3, Workers: 0}, {H: 3, Workers: 1}},
		// Peel ignores the execution knobs entirely.
		{{H: 3, Algo: dsd.AlgoPeel, Workers: 2}, {H: 3, Algo: dsd.AlgoPeel, Workers: 8, Iterative: 4}},
		// Anchors are a set.
		{{Anchors: []int32{2, 1, 1}}, {Anchors: []int32{1, 2}}},
	}
	for i, pair := range same {
		if pair[0].Key() != pair[1].Key() {
			t.Fatalf("case %d: keys differ:\n  %s\n  %s", i, pair[0].Key(), pair[1].Key())
		}
	}

	// Distinctness: every consumed field is load-bearing.
	distinct := []dsd.Query{
		{},
		{H: 3},
		{H: 3, Algo: dsd.AlgoExact},
		{H: 3, Algo: dsd.AlgoPeel},
		{H: 3, Workers: 4},
		{H: 3, Iterative: -1},
		{H: 3, Iterative: 8},
		{H: 3, Core: &dsd.CoreExactOptions{Pruning1: true}},
		{Anchors: []int32{1}},
		{Anchors: []int32{1, 2}},
		{H: 3, AtLeast: 4},
		{H: 3, AtLeast: 5},
		{H: 3, Eps: 0.25},
		{H: 3, Eps: 0.5},
	}
	seen := map[string]int{}
	for i, q := range distinct {
		key := q.Key()
		if strings.HasPrefix(key, "invalid|") {
			t.Fatalf("query %d unexpectedly invalid: %s", i, key)
		}
		if j, ok := seen[key]; ok {
			t.Fatalf("queries %d and %d collide on key %s", j, i, key)
		}
		seen[key] = i
	}
}

func TestQueryValidation(t *testing.T) {
	g := dsd.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	s := dsd.NewSolver(g)
	triangle, _ := dsd.PatternByName("triangle")
	bad := []dsd.Query{
		{H: 1},
		{H: 99},
		{Algo: "bogus"},
		{Pattern: triangle, H: 3},                      // both motif forms
		{Algo: dsd.AlgoAnchored},                       // anchors missing
		{Pattern: triangle, Anchors: []int32{0}},       // anchored needs edge
		{Algo: dsd.AlgoAtLeast},                        // size missing
		{Algo: dsd.AlgoBatchPeel},                      // eps missing
		{H: 3, Algo: dsd.AlgoPeel, Eps: 0.5},           // eps without batch-peel
		{H: 3, Algo: dsd.AlgoExact, AtLeast: 4},        // size without at-least
		{H: 3, Algo: dsd.AlgoInc, Anchors: []int32{0}}, // anchors without anchored
	}
	for i, q := range bad {
		if _, err := s.Solve(context.Background(), q); err == nil {
			t.Fatalf("invalid query %d accepted: %+v", i, q)
		}
		if _, err := q.Normalized(); err == nil {
			t.Fatalf("invalid query %d normalized: %+v", i, q)
		}
	}

	// The zero query is the edge-densest subgraph via core-exact.
	nq, err := dsd.Query{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if nq.Algo != dsd.AlgoCoreExact || nq.H != 2 || nq.Psi() != "edge" {
		t.Fatalf("zero query normalized to %+v", nq)
	}
}

// TestIterativeBudgetDoesNotChangeSearch: core-exact runs no Greed++
// pre-solve, so on TestFlowProbeCounts' corpus every Iterative budget
// gives Solve the same answer, witness and flow networks as Iterative 0,
// with no Greed++ work reported. The budget still drives the stream's
// Greed++ rung: a positive one emits a StageIterative answer, and a
// negative one skips the rung.
func TestIterativeBudgetDoesNotChangeSearch(t *testing.T) {
	ctx := context.Background()
	stand := func(name string) *dsd.Graph {
		spec, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.LoadDiv(8)
	}
	multi := gen.MultiCommunity(8, 25, 10, 15, 18, 1)
	hepth, caida := stand("Ca-HepTh"), stand("As-Caida")
	cases := []struct {
		name string
		g    *dsd.Graph
		h    int
	}{
		{"multicommunity", multi, 2}, {"multicommunity", multi, 3},
		{"Ca-HepTh/8", hepth, 2}, {"Ca-HepTh/8", hepth, 3},
		{"As-Caida/8", caida, 2}, {"As-Caida/8", caida, 3},
	}
	for _, c := range cases {
		want, err := dsd.NewSolver(c.g).Solve(ctx, dsd.Query{H: c.h, Iterative: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, iter := range []int{-1, 0, 1, 16, 64} {
			key := fmt.Sprintf("%s h=%d iter=%d", c.name, c.h, iter)
			got, err := dsd.NewSolver(c.g).Solve(ctx, dsd.Query{H: c.h, Iterative: iter})
			if err != nil {
				t.Fatal(err)
			}
			if got.Density != want.Density || !slices.Equal(got.Vertices, want.Vertices) {
				t.Errorf("%s: density %v on %d vertices, want %v on %d",
					key, got.Density, len(got.Vertices), want.Density, len(want.Vertices))
			}
			if got.Stats.Iterations != want.Stats.Iterations || !slices.Equal(got.Stats.FlowNodes, want.Stats.FlowNodes) {
				t.Errorf("%s: flow networks %v, want %v", key, got.Stats.FlowNodes, want.Stats.FlowNodes)
			}
			if got.Stats.PreSolveIters != 0 || got.Stats.PreSolveSkips != 0 {
				t.Errorf("%s: %d Greed++ iterations, %d skips", key, got.Stats.PreSolveIters, got.Stats.PreSolveSkips)
			}
		}
	}

	stages := func(iter int) int {
		n := 0
		_, err := dsd.NewSolver(hepth).StreamFunc(ctx, dsd.Query{H: 3, Iterative: iter}, func(a dsd.Answer) {
			if a.Stage == dsd.StageIterative {
				n++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := stages(16); n == 0 {
		t.Error("a stream at Iterative 16 emitted no StageIterative answer")
	}
	if n := stages(-1); n != 0 {
		t.Errorf("a stream at Iterative -1 emitted %d StageIterative answers", n)
	}
}
