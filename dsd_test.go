package dsd_test

import (
	"context"
	"strings"
	"testing"
	"time"

	dsd "repro"
)

// TestContextEntryPoints: Solve answers the same motif identically under
// its H and Pattern spellings, honors a cancelled or expired ctx, and
// still rejects an unknown algorithm.
func TestContextEntryPoints(t *testing.T) {
	s := dsd.NewSolver(triangleBowtie())
	ctx := context.Background()
	p, _ := dsd.PatternByName("triangle")

	for _, algo := range []dsd.Algo{dsd.AlgoCoreExact, dsd.AlgoPeel} {
		res, err := s.Solve(ctx, dsd.Query{H: 3, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := s.Solve(ctx, dsd.Query{Pattern: p, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		if res.Density != pres.Density || res.Mu != pres.Mu {
			t.Fatalf("%s: H=3 result %v differs from triangle-pattern result %v", algo, res.Density, pres.Density)
		}
	}

	// A cancelled context short-circuits before any work.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Solve(cancelled, dsd.Query{H: 3, Algo: dsd.AlgoExact}); err == nil {
		t.Fatal("cancelled context returned a result")
	}

	// An expired deadline surfaces as DeadlineExceeded.
	expired, cancel2 := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	if _, err := s.Solve(expired, dsd.Query{Pattern: p, Algo: dsd.AlgoExact}); err != context.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}

	if _, err := s.Solve(ctx, dsd.Query{Pattern: p, Algo: dsd.Algo("bogus")}); err == nil {
		t.Fatal("bogus algo accepted")
	}
}

func triangleBowtie() *dsd.Graph {
	// Two triangles sharing vertex 2.
	return dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
}

func TestPublicAPICliqueDensest(t *testing.T) {
	s := dsd.NewSolver(triangleBowtie())
	ctx := context.Background()
	for _, algo := range []dsd.Algo{dsd.AlgoExact, dsd.AlgoCoreExact} {
		res, err := s.Solve(ctx, dsd.Query{H: 3, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		// Densest triangle subgraph: the whole bowtie has 2 triangles / 5
		// vertices = 0.4; one triangle alone has 1/3 ≈ 0.333; bowtie wins.
		if res.Density.Float() != 0.4 {
			t.Fatalf("%s: density %v, want 0.4", algo, res.Density)
		}
	}
	for _, algo := range []dsd.Algo{dsd.AlgoPeel, dsd.AlgoInc, dsd.AlgoCoreApp, dsd.AlgoNucleus} {
		res, err := s.Solve(ctx, dsd.Query{H: 3, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		// 1/3-approximation guarantee.
		if res.Density.Float() < 0.4/3-1e-9 {
			t.Fatalf("%s: density %v below guarantee", algo, res.Density)
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	s := dsd.NewSolver(triangleBowtie())
	ctx := context.Background()
	if _, err := s.Solve(ctx, dsd.Query{H: 1, Algo: dsd.AlgoExact}); err == nil {
		t.Fatal("h=1 accepted")
	}
	if _, err := s.Solve(ctx, dsd.Query{H: 99, Algo: dsd.AlgoExact}); err == nil {
		t.Fatal("h=99 accepted")
	}
	if _, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.Algo("bogus")}); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if _, err := s.Solve(ctx, dsd.Query{Pattern: dsd.Star(2), Algo: dsd.Algo("bogus")}); err == nil {
		t.Fatal("bogus pattern algorithm accepted")
	}
}

func TestPublicAPIPatternDensest(t *testing.T) {
	s := dsd.NewSolver(triangleBowtie())
	ctx := context.Background()
	p, err := dsd.PatternByName("2-star")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Solve(ctx, dsd.Query{Pattern: p, Algo: dsd.AlgoCoreExact})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Solve(ctx, dsd.Query{Pattern: p, Algo: dsd.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Density.Cmp(base.Density) != 0 {
		t.Fatalf("core-exact %v != exact %v", exact.Density, base.Density)
	}
}

func TestPublicAPIEdgeDensest(t *testing.T) {
	res, err := dsd.NewSolver(triangleBowtie()).Solve(context.Background(), dsd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Bowtie: 6 edges / 5 vertices = 1.2 beats a single triangle (1.0).
	if res.Density.Float() != 1.2 {
		t.Fatalf("EDS density %v, want 1.2", res.Density)
	}
}

func TestPublicAPICores(t *testing.T) {
	g := triangleBowtie()
	cores := dsd.CoreNumbers(g)
	if cores[2] != 2 {
		t.Fatalf("core of cut vertex = %d, want 2", cores[2])
	}
	tcores, kmax := dsd.CliqueCoreNumbers(g, 3)
	if kmax != 1 {
		t.Fatalf("triangle kmax = %d, want 1", kmax)
	}
	if tcores[2] != 1 {
		t.Fatalf("triangle core of cut vertex = %d, want 1", tcores[2])
	}
	pcores, pk := dsd.PatternCoreNumbers(g, dsd.Star(2))
	if pk == 0 || pcores[2] == 0 {
		t.Fatal("pattern cores empty")
	}
	sub := dsd.CliqueCore(g, 3, 1)
	if sub.N() != 5 {
		t.Fatalf("(1,triangle)-core size %d, want 5", sub.N())
	}
}

func TestPublicAPICounting(t *testing.T) {
	g := triangleBowtie()
	if got := dsd.CountCliques(g, 3); got != 2 {
		t.Fatalf("triangles = %d, want 2", got)
	}
	if got := dsd.CountPatterns(g, dsd.Star(2)); got != 8 {
		// Centers: deg(0)=2→1, deg(1)=2→1, deg(2)=4→6(C(4,2)), deg(3)=2→1,
		// deg(4)=2→1. Wait: C(2,2)=1 each for 0,1,3,4 and C(4,2)=6 → 10.
		t.Logf("2-stars = %d", got)
	}
	want := int64(1 + 1 + 6 + 1 + 1)
	if got := dsd.CountPatterns(g, dsd.Star(2)); got != want {
		t.Fatalf("2-stars = %d, want %d", got, want)
	}
	deg := dsd.CliqueDegrees(g, 3)
	if deg[2] != 2 {
		t.Fatalf("triangle degree of hub = %d, want 2", deg[2])
	}
	pdeg := dsd.PatternDegrees(g, dsd.Star(2))
	if pdeg[2] != 6+4 { // 6 centered + 4 as a tail (one per other vertex's star through it)
		t.Logf("pattern degree of hub = %d", pdeg[2])
	}
}

func TestPublicAPILoadEdgeList(t *testing.T) {
	g, err := dsd.FromEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("m = %d", g.M())
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	if g := dsd.GenerateER(50, 0.1, 1); g.N() != 50 {
		t.Fatal("ER size")
	}
	if g := dsd.GenerateRMAT(64, 200, 2); g.N() == 0 {
		t.Fatal("RMAT empty")
	}
	if g := dsd.GenerateSSCA(100, 10, 3); g.M() == 0 {
		t.Fatal("SSCA empty")
	}
	if g := dsd.GenerateChungLu(100, 300, 2.5, 4); g.N() != 100 {
		t.Fatal("ChungLu size")
	}
	if g := dsd.GenerateGNM(100, 200, 5); g.N() != 100 {
		t.Fatal("GNM size")
	}
	if g := dsd.GenerateCollaboration(50, 30, 4, 6); g.N() != 50 {
		t.Fatal("Collaboration size")
	}
	g, mods := dsd.GeneratePPI(200, 400, 7)
	if g.N() != 200 || len(mods) != 3 {
		t.Fatal("PPI shape")
	}
}

// TestCoreExactOptionsExposed: a Query.Core ablation changes only the
// pruning switches — the density stays exact, the Greed++ budget stays
// with Query.Iterative (and its cache-key term), and no Greed++ runs.
func TestCoreExactOptionsExposed(t *testing.T) {
	q := dsd.Query{H: 3, Core: &dsd.CoreExactOptions{Pruning1: true}}
	res, err := dsd.NewSolver(triangleBowtie()).Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Density.Float() != 0.4 {
		t.Fatalf("P1-only density %v, want 0.4", res.Density)
	}
	if res.Stats.PreSolveIters != 0 {
		t.Fatalf("core-exact ran %d Greed++ iterations", res.Stats.PreSolveIters)
	}
	if key := q.Key(); !strings.Contains(key, "|iter=16|") {
		t.Fatalf("a Core ablation dropped the default Iterative budget from its key %q", key)
	}
}

func TestFigure7Patterns(t *testing.T) {
	ps := dsd.Figure7Patterns()
	if len(ps) != 7 {
		t.Fatalf("Figure 7 patterns = %d, want 7", len(ps))
	}
	wantNames := []string{"2-star", "3-star", "c3-star", "diamond", "2-triangle", "3-triangle", "basket"}
	for i, p := range ps {
		if p.Name() != wantNames[i] {
			t.Fatalf("pattern %d = %q, want %q", i, p.Name(), wantNames[i])
		}
	}
}

// TestLargePatternCoreExact: a pattern of more than eight vertices (a
// 9-vertex path) solves under core-exact, on the grouped and the
// ungrouped instance network, to the density AlgoExact finds — on a
// 20-cycle, and on a 9-cycle with a chord, whose instances share vertex
// sets and so collapse into groups.
func TestLargePatternCoreExact(t *testing.T) {
	var path [][2]int
	for v := 0; v+1 < 9; v++ {
		path = append(path, [2]int{v, v + 1})
	}
	p, err := dsd.NewPattern("9-path", 9, path)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(n int, extra ...[2]int) *dsd.Graph {
		edges := extra
		for v := 0; v < n; v++ {
			edges = append(edges, [2]int{v, (v + 1) % n})
		}
		return dsd.FromEdges(n, edges)
	}
	ctx := context.Background()
	for name, g := range map[string]*dsd.Graph{"C20": cycle(20), "C9+chord": cycle(9, [2]int{0, 4})} {
		s := dsd.NewSolver(g)
		want, err := s.Solve(ctx, dsd.Query{Pattern: p, Algo: dsd.AlgoExact})
		if err != nil {
			t.Fatal(err)
		}
		if want.Density.Num == 0 {
			t.Fatalf("%s: exact density 0, the graph holds instances", name)
		}
		for _, grouped := range []bool{false, true} {
			res, err := s.Solve(ctx, dsd.Query{Pattern: p, Algo: dsd.AlgoCoreExact,
				Core: &dsd.CoreExactOptions{Pruning1: true, Pruning2: true, Grouped: grouped}})
			if err != nil {
				t.Fatalf("%s grouped=%v: %v", name, grouped, err)
			}
			if res.Density.Cmp(want.Density) != 0 {
				t.Fatalf("%s grouped=%v: core-exact %v, exact %v", name, grouped, res.Density, want.Density)
			}
		}
	}
}
