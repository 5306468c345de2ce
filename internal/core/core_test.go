package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/rational"
	"repro/internal/testutil"
)

func bruteDensest(g *graph.Graph, o motif.Oracle) rational.R {
	d, _ := testutil.BruteForceDensest(g, func(sub *graph.Graph) int64 {
		return motif.Count(o, sub)
	})
	return d
}

// coreExact runs CoreExact to completion on a fresh decomposition.
// runExact is Exact failing the test on error.
func runExact(t testing.TB, g *graph.Graph, o motif.Oracle, grouped bool) *Result {
	t.Helper()
	res, err := Exact(g, o, grouped)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func coreExact(t testing.TB, g *graph.Graph, o motif.Oracle, opts Options) *Result {
	t.Helper()
	res, err := CoreExact(context.Background(), g, o, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// figure1 is the paper's running example (Figure 1(a)): a 7-vertex graph
// whose EDS S1 has edge-density 11/7 and whose triangle-CDS S2 is a
// 4-clique-ish region. We build a graph with the stated densities: S1 =
// 7 vertices, 11 edges; its densest triangle region is the 4-clique.
func figure1() *graph.Graph {
	return graph.FromEdges(7, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {0, 3}, // K4 on 0..3
		{3, 4}, {4, 5}, {5, 6}, {6, 4}, {3, 5}, // triangle blob
	})
}

func TestExactEDSFigure1(t *testing.T) {
	g := figure1()
	res := runExact(t, g, motif.Clique{H: 2}, false)
	want := bruteDensest(g, motif.Clique{H: 2})
	if res.Density.Cmp(want) != 0 {
		t.Fatalf("Exact EDS density %v, brute force %v", res.Density, want)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(10, 22, seed)
		for _, h := range []int{2, 3, 4} {
			want := bruteDensest(g, motif.Clique{H: h})
			got := runExact(t, g, motif.Clique{H: h}, false)
			if got.Density.Cmp(want) != 0 {
				t.Logf("seed %d h=%d: Exact %v, brute %v", seed, h, got.Density, want)
				return false
			}
			// The reported µ must match a recount of the returned set.
			if len(got.Vertices) > 0 {
				den, mu := densityOf(g, motif.Clique{H: h}, got.Vertices)
				if den.Cmp(got.Density) != 0 || mu != got.Mu {
					t.Logf("seed %d h=%d: result inconsistent", seed, h)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreExactMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(12, 30, seed)
		for _, h := range []int{2, 3, 4, 5} {
			exact := runExact(t, g, motif.Clique{H: h}, false)
			ce := coreExact(t, g, motif.Clique{H: h}, DefaultOptions())
			if ce.Density.Cmp(exact.Density) != 0 {
				t.Logf("seed %d h=%d: CoreExact %v, Exact %v", seed, h, ce.Density, exact.Density)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreExactPruningVariants(t *testing.T) {
	variants := []Options{
		{},               // base
		{Pruning1: true}, // P1
		{Pruning2: true}, // P2
		{Grouped: true},
		{Pruning1: true, Pruning2: true},
		DefaultOptions(),
	}
	f := func(seed int64) bool {
		g := gen.GNM(12, 28, seed)
		for _, h := range []int{2, 3} {
			want := bruteDensest(g, motif.Clique{H: h})
			for i, opts := range variants {
				got := coreExact(t, g, motif.Clique{H: h}, opts)
				if got.Density.Cmp(want) != 0 {
					t.Logf("seed %d h=%d variant %d: %v want %v", seed, h, i, got.Density, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPExactAndCorePExactMatchBruteForce(t *testing.T) {
	pats := []*pattern.Pattern{pattern.Star(2), pattern.Diamond(), pattern.CStar(), pattern.Book(2)}
	f := func(seed int64) bool {
		g := gen.GNM(9, 20, seed)
		for _, p := range pats {
			o := motif.For(p)
			want := bruteDensest(g, o)
			pe := runExact(t, g, motif.For(p), false)
			if pe.Density.Cmp(want) != 0 {
				t.Logf("seed %d %s: PExact %v want %v", seed, p.Name(), pe.Density, want)
				return false
			}
			cpe := coreExact(t, g, motif.For(p), DefaultOptions())
			if cpe.Density.Cmp(want) != 0 {
				t.Logf("seed %d %s: CorePExact %v want %v", seed, p.Name(), cpe.Density, want)
				return false
			}
			peg := runExact(t, g, motif.For(p), true)
			if peg.Density.Cmp(want) != 0 {
				t.Logf("seed %d %s: PExactGrouped %v want %v", seed, p.Name(), peg.Density, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestLargePatternUngrouped: a 9-vertex path pattern solves under
// CoreExact on the ungrouped instance network to the density Exact
// finds, on a 20-cycle and on a 9-cycle with a chord, whose instances
// share vertex sets (the root package's TestLargePatternCoreExact holds
// the grouped network to the same densities).
func TestLargePatternUngrouped(t *testing.T) {
	var path [][2]int
	for v := 0; v+1 < 9; v++ {
		path = append(path, [2]int{v, v + 1})
	}
	p, err := pattern.New("9-path", 9, path)
	if err != nil {
		t.Fatal(err)
	}
	o := motif.For(p)
	cycle := func(n int, extra ...[2]int) *graph.Graph {
		edges := extra
		for v := 0; v < n; v++ {
			edges = append(edges, [2]int{v, (v + 1) % n})
		}
		return graph.FromEdges(n, edges)
	}
	for name, g := range map[string]*graph.Graph{"C20": cycle(20), "C9+chord": cycle(9, [2]int{0, 4})} {
		want := runExact(t, g, o, false).Density
		if want.Num == 0 {
			t.Fatalf("%s: exact density 0, the graph holds instances", name)
		}
		opts := DefaultOptions()
		opts.Grouped = false
		if got := coreExact(t, g, o, opts).Density; got.Cmp(want) != 0 {
			t.Fatalf("%s: ungrouped CoreExact %v, Exact %v", name, got, want)
		}
	}
}

// TestApproximationGuarantee checks Lemma 8 / Lemma 10: every
// approximation algorithm returns density ≥ ρopt/|VΨ|.
func TestApproximationGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(11, 26, seed)
		oracles := []motif.Oracle{
			motif.Clique{H: 2}, motif.Clique{H: 3},
			motif.Star{X: 2}, motif.Diamond{},
		}
		for _, o := range oracles {
			opt := bruteDensest(g, o)
			if opt.IsZero() {
				continue
			}
			for name, res := range map[string]*Result{
				"PeelApp": PeelApp(g, o, nil),
				"IncApp":  IncApp(g, o, nil),
				"CoreApp": CoreApp(g, o, nil),
				"Nucleus": Nucleus(g, o, nil),
			} {
				// ρ(S*) ≥ ρopt/|VΨ| ⟺ ρ(S*)·|VΨ|·den(opt) ≥ num(opt)·den(S*).
				lhs := rational.New(res.Density.Num*int64(o.Size()), res.Density.Den)
				if lhs.Less(opt) {
					t.Logf("seed %d %s %s: got %v, need ≥ %v/|VΨ|", seed, o.Name(), name, res.Density, opt)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestIncCoreNucleusAgree: the three core-returning approximations must
// produce the same (kmax,Ψ)-core.
func TestIncCoreNucleusAgree(t *testing.T) {
	g := gen.GNM(30, 110, 5)
	for _, o := range []motif.Oracle{motif.Clique{H: 2}, motif.Clique{H: 3}, motif.Diamond{}} {
		a := IncApp(g, o, nil)
		b := CoreApp(g, o, nil)
		c := Nucleus(g, o, nil)
		if a.Density.Cmp(b.Density) != 0 || a.Density.Cmp(c.Density) != 0 {
			t.Fatalf("%s: IncApp %v CoreApp %v Nucleus %v", o.Name(), a.Density, b.Density, c.Density)
		}
		if len(a.Vertices) != len(b.Vertices) || len(a.Vertices) != len(c.Vertices) {
			t.Fatalf("%s: core sizes differ: %d %d %d", o.Name(), len(a.Vertices), len(b.Vertices), len(c.Vertices))
		}
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	if res := coreExact(t, empty, motif.Clique{H: 3}, DefaultOptions()); len(res.Vertices) != 0 || !res.Density.IsZero() {
		t.Fatalf("empty graph: %+v", res)
	}
	if res := runExact(t, empty, motif.Clique{H: 2}, false); len(res.Vertices) != 0 {
		t.Fatalf("empty graph Exact: %+v", res)
	}
	// No triangles at all.
	tree := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	if res := coreExact(t, tree, motif.Clique{H: 3}, DefaultOptions()); !res.Density.IsZero() {
		t.Fatalf("tree triangle density: %v", res.Density)
	}
	if res := PeelApp(tree, motif.Clique{H: 3}, nil); !res.Density.IsZero() {
		t.Fatalf("tree PeelApp: %v", res.Density)
	}
	// Graph smaller than the pattern.
	tiny := graph.FromEdges(2, [][2]int{{0, 1}})
	if res := runExact(t, tiny, motif.For(pattern.Basket()), false); len(res.Vertices) != 0 {
		t.Fatalf("tiny PExact: %+v", res)
	}
}

func TestStatsInstrumentation(t *testing.T) {
	g := gen.GNM(20, 70, 2)
	res := coreExact(t, g, motif.Clique{H: 3}, DefaultOptions())
	if res.Stats.Total <= 0 {
		t.Fatal("missing total time")
	}
	if res.Stats.Iterations != len(res.Stats.FlowNodes) {
		t.Fatalf("iterations %d != recorded networks %d", res.Stats.Iterations, len(res.Stats.FlowNodes))
	}
	// Flow networks must never grow during a run (§6.1 ③).
	for i := 1; i < len(res.Stats.FlowNodes); i++ {
		if res.Stats.FlowNodes[i] > res.Stats.FlowNodes[0] {
			// Networks may differ across components, but the first is
			// built on the largest located core; later ones must not be
			// larger.
			t.Fatalf("flow network grew: %v", res.Stats.FlowNodes)
		}
	}
}
