package psicore

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/rational"
	"repro/internal/testutil"
)

// withPlantedClique returns g plus a clique on vertices 0..size-1.
func withPlantedClique(g *graph.Graph, size int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	g.Edges(func(u, v int) { b.AddEdge(u, v) })
	for u := 0; u < size; u++ {
		for v := u + 1; v < size; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// bipartiteCoreGraph is K_{6,6}, whose classical kmax-core (6) holds no
// clique of three or more vertices, beside a K5 and a K4 of lower
// classical core that do: DecomposeWithin must fall back.
func bipartiteCoreGraph() *graph.Graph {
	b := graph.NewBuilder(21)
	for u := 0; u < 6; u++ {
		for v := 6; v < 12; v++ {
			b.AddEdge(u, v)
		}
	}
	for _, c := range [][]int{{12, 13, 14, 15, 16}, {17, 18, 19, 20}} {
		for i, u := range c {
			for _, v := range c[i+1:] {
				b.AddEdge(u, v)
			}
		}
	}
	b.AddEdge(11, 12)
	b.AddEdge(16, 17)
	return b.Build()
}

// addClique adds a clique on vs to b.
func addClique(b *graph.Builder, vs ...int) {
	for i, u := range vs {
		for _, v := range vs[i+1:] {
			b.AddEdge(u, v)
		}
	}
}

// starsAndCliqueGraph has a K6 whose vertices hang 30 leaves each, 30
// star centres of 30 leaves each joined in a cycle, and a 1000-cycle.
// The degree bound is 32 but kmax is 5, so the candidate search retries
// at kmax(G[C_32]) = 5; the cycle keeps C_5 under half the adjacency.
func starsAndCliqueGraph() *graph.Graph {
	b := graph.NewBuilder(0)
	next := 0
	vertex := func() int { next++; return next - 1 }
	var clique, centres []int
	for range 6 {
		clique = append(clique, vertex())
	}
	addClique(b, clique...)
	for range 30 {
		centres = append(centres, vertex())
	}
	for i, c := range centres {
		b.AddEdge(c, centres[(i+1)%len(centres)])
	}
	for _, c := range append(clique, centres...) {
		for range 30 {
			b.AddEdge(c, vertex())
		}
	}
	first := vertex()
	for v := first; v < first+999; v++ {
		b.AddEdge(v, v+1)
		vertex()
	}
	b.AddEdge(first+999, first)
	return b.Build()
}

// circulant adds the 4-regular circulant C_n(1, 2) on vertices 0..n-1
// to b.
func circulant(b *graph.Builder, n int) {
	for v := range n {
		b.AddEdge(v, (v+1)%n)
		b.AddEdge(v, (v+2)%n)
	}
}

// flatGraph is a circulant C_200(1, 2) with a K6 planted on six spread
// vertices and a 100-vertex path hanging off it: x = 4 reaches the
// circulant, so C_4 holds most of the adjacency and the candidate
// search peels the whole graph.
func flatGraph() *graph.Graph {
	b := graph.NewBuilder(300)
	circulant(b, 200)
	addClique(b, 0, 40, 80, 120, 160, 190)
	b.AddEdge(100, 200)
	for v := 200; v < 299; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// checkWithin holds d, a DecomposeWithin result on g, against Decompose:
// the same KMax and the same (k,Ψ)-core for every k ≥ Floor, a residual
// and a floor witness whose densities re-evaluate on g, and a peel of
// exactly the classical Level-core.
func checkWithin(t *testing.T, what string, g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition, d *Decomposition) {
	t.Helper()
	ref := Decompose(g, o)
	if d.Floor < 1 || d.Floor != d.FloorDensity.Ceil() {
		t.Fatalf("%s: Floor %d, floor density %v", what, d.Floor, d.FloorDensity)
	}
	if d.KMax != ref.KMax {
		t.Fatalf("%s: KMax %d, full peel %d", what, d.KMax, ref.KMax)
	}
	for k := d.Floor; k <= ref.KMax; k++ {
		if got, want := d.CoreVertices(k), ref.CoreVertices(k); !slices.Equal(got, want) {
			t.Fatalf("%s: (%d,Ψ)-core %v, full peel %v", what, k, got, want)
		}
	}
	for v, c := range d.Core {
		if c >= d.Floor != (ref.Core[v] >= d.Floor) {
			t.Fatalf("%s: vertex %d core %d, full peel %d, floor %d", what, v, c, ref.Core[v], d.Floor)
		}
	}
	evaluate := func(vs []int32) rational.R {
		sub := g.Induced(vs)
		return rational.New(motif.Count(o, sub.Graph), int64(sub.N()))
	}
	if r := evaluate(d.BestResidualVertices()); r.Cmp(d.BestResidual) != 0 {
		t.Fatalf("%s: best residual claims %v, re-evaluates to %v", what, d.BestResidual, r)
	}
	if r := evaluate(d.FloorWitness); r.Cmp(d.FloorDensity) != 0 {
		t.Fatalf("%s: floor witness claims %v, re-evaluates to %v", what, d.FloorDensity, r)
	}
	var x []int32
	for v, c := range kc.Core {
		if c >= d.Level {
			x = append(x, int32(v))
		}
	}
	order := slices.Sorted(slices.Values(d.Order))
	if !slices.Equal(order, x) || len(x) == g.N() {
		t.Fatalf("%s: peeled %d vertices, classical %d-core has %d of %d", what, len(order), d.Level, len(x), g.N())
	}
}

// TestDecomposeWithinMatchesDecompose checks the restricted decomposition
// against the full peel for h ∈ {2, 3, 4, 5}, serial and with striped
// counting, wherever the classical x-core is a strict subset of the
// graph, that the restriction found from candidate sets is the one read
// from the classical cores, and that DecomposeWithin declines exactly
// where it should: on these cases and for motifs other than cliques.
func TestDecomposeWithinMatchesDecompose(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		// strict and restricted report, per h = 2, 3, 4, 5, whether the
		// classical x-core X is a strict subset of the graph, and whether
		// it holds at most half of the adjacency, so that DecomposeWithin
		// restricts.
		strict, restricted [4]bool
	}{
		// Every vertex of the multi-community graph lies in the classical
		// 15-core that triangles need, and in the 15-core that edges
		// need; for h = 4, 5 X misses only a few fringe vertices.
		{"multicommunity", gen.MultiCommunity(8, 25, 10, 15, 18, 1), [4]bool{false, false, true, true}, [4]bool{}},
		// For edges x = 6 and X holds 1.24 times m adjacency entries.
		{"chunglu+K12", withPlantedClique(gen.ChungLu(600, 2400, 2.3, 3), 12), [4]bool{true, true, true, true}, [4]bool{false, true, true, true}},
		{"chunglu+K20", withPlantedClique(gen.ChungLu(1500, 4500, 2.1, 7), 20), [4]bool{true, true, true, true}, [4]bool{true, true, true, true}},
		// For edges x = 3, and every vertex lies in the classical 3-core.
		{"bipartite-kmax-core", bipartiteCoreGraph(), [4]bool{}, [4]bool{}},
	}
	for _, tc := range cases {
		kc := kcore.Decompose(tc.g)
		for i, h := range []int{2, 3, 4, 5} {
			o := motif.Clique{H: h}
			what := fmt.Sprintf("%s/h=%d", tc.name, h)
			checkSameRestriction(t, what, tc.g, o, kc)
			d, err := DecomposeWithin(context.Background(), tc.g, o, kc, 1)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if (d != nil) != tc.restricted[i] {
				t.Fatalf("%s: restricted=%v, want %v", what, d != nil, tc.restricted[i])
			}
			r := classicalRestriction(tc.g, o, kc)
			if (r != nil) != tc.strict[i] {
				t.Fatalf("%s: X strict=%v, want %v", what, r != nil, tc.strict[i])
			}
			if r == nil {
				continue
			}
			dx, err := r.decompose(context.Background(), tc.g, o, 1)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkWithin(t, what, tc.g, o, kc, dx)
			if d != nil && decompositionFingerprint(d) != decompositionFingerprint(dx) {
				t.Fatalf("%s: the size rule changed the restricted peel", what)
			}
			par, err := classicalRestriction(tc.g, o, nil).decompose(context.Background(), tc.g, o, 2)
			if err != nil {
				t.Fatalf("%s: workers=2: %v", what, err)
			}
			if decompositionFingerprint(par) != decompositionFingerprint(dx) {
				t.Fatalf("%s: workers=2 with its own classical cores peels differently", what)
			}
		}
	}
	for _, o := range []motif.Oracle{motif.Star{X: 2}, motif.Diamond{}} {
		g := cases[2].g
		if d, err := DecomposeWithin(context.Background(), g, o, nil, 1); d != nil || err != nil {
			t.Fatalf("%s: DecomposeWithin = (%v, %v), want no restriction", o.Name(), d != nil, err)
		}
	}
}

// TestDecomposeWithinCancelled checks that a dead context stops the
// restricted peel like the full one.
func TestDecomposeWithinCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := withPlantedClique(gen.ChungLu(600, 2400, 2.3, 3), 12)
	if d, err := DecomposeWithin(ctx, g, motif.Clique{H: 3}, nil, 1); err != context.Canceled || d != nil {
		t.Fatalf("DecomposeWithin on dead ctx: (%v, %v), want (nil, context.Canceled)", d, err)
	}
}

// FuzzDecomposeWithin checks the restricted decomposition against the
// full peel on graphs of at most 11 vertices (an edge bitmask over the
// vertex pairs) for edges and for one h ∈ {3, 4, 5} chosen by hsel, so
// every input checks two motifs: the restriction found from candidate
// sets must equal the one read from a full classical decomposition, and
// wherever X is a strict subset, every core number at or above Floor
// must be exact and both tracked densities real. It skips the size
// rule, which would decline most small graphs. The committed corpus
// (testdata/fuzz/FuzzDecomposeWithin) holds graphs whose classical
// x-core is a strict subset for h = 3, 4 and 5, one whose x-core is the
// whole graph, and the shapes of TestClassicalRestrictionWithoutCores
// at this size: a degree bound above kmax (stars-triangle), a regular
// graph (circulant-9), a planted K4 with x below the first threshold
// (k4-beside-c7-h3) and with X in the first candidate set
// (k4-beside-c7-h4), an independent set, and a K4 beside a triangle with
// a pendant vertex, whose edge x-core (x = 2) leaves the pendant out
// (k4-triangle-pendant-h2).
func FuzzDecomposeWithin(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, mask uint64, hsel uint8) {
		nv := 1 + int(n)%11
		var edges [][2]int
		bit := 0
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if mask>>bit&1 == 1 {
					edges = append(edges, [2]int{u, v})
				}
				bit++
			}
		}
		g := graph.FromEdges(nv, edges)
		kc := kcore.Decompose(g)
		for _, o := range []motif.Clique{{H: 2}, {H: 3 + int(hsel)%3}} {
			checkSameRestriction(t, o.Name(), g, o, kc)
			r := classicalRestriction(g, o, kc)
			if r == nil {
				continue
			}
			d, err := r.decompose(context.Background(), g, o, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkWithin(t, o.Name(), g, o, kc, d)
		}
	})
}

// checkSameRestriction holds classicalRestriction without classical cores
// against the one read from kc: the same K, x, X and adjacency volume,
// and a bit-identical restricted decomposition.
func checkSameRestriction(t *testing.T, what string, g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition) {
	t.Helper()
	got, want := classicalRestriction(g, o, nil), classicalRestriction(g, o, kc)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: restriction without cores %v, with cores %v", what, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.x != want.x || got.floor != want.floor || got.adj != want.adj ||
		got.lo.Num != want.lo.Num || got.lo.Den != want.lo.Den || !slices.Equal(got.k, want.k) {
		t.Fatalf("%s: (x %d, floor %d, adj %d, ρ(K) %v, |K| %d) without cores, (%d, %d, %d, %v, %d) with",
			what, got.x, got.floor, got.adj, got.lo, len(got.k), want.x, want.floor, want.adj, want.lo, len(want.k))
	}
	if gx, wx := got.cores.keep(got.x), want.cores.keep(want.x); !slices.Equal(gx.Orig, wx.Orig) {
		t.Fatalf("%s: X has %d vertices without cores, %d with", what, gx.N(), wx.N())
	}
	gd, err := got.decompose(context.Background(), g, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := want.decompose(context.Background(), g, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if decompositionFingerprint(gd) != decompositionFingerprint(wd) || gd.Floor != wd.Floor || gd.Level != wd.Level ||
		!slices.Equal(gd.FloorWitness, wd.FloorWitness) || gd.FloorDensity != wd.FloorDensity {
		t.Fatalf("%s: the restricted decomposition differs without classical cores", what)
	}
}

// TestClassicalRestrictionWithoutCores checks the candidate-set search
// against the restriction read from a full classical decomposition, for
// h ∈ {2, 3, 4, 5}, on shapes that together drive every path of the
// search: kmax found in
// the first candidate set, a retry below a degree bound far above kmax,
// X taken from a lower set than K's, the volume rule peeling all of g
// for K and for X, and a graph without edges.
func TestClassicalRestrictionWithoutCores(t *testing.T) {
	regular := graph.NewBuilder(200)
	circulant(regular, 200)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"stars+K6", starsAndCliqueGraph()},
		{"gnm+K30", withPlantedClique(gen.GNM(2000, 3000, 5), 30)},
		{"chunglu+K20", withPlantedClique(gen.ChungLu(1500, 4500, 2.1, 7), 20)},
		{"chunglu+K12", withPlantedClique(gen.ChungLu(600, 2400, 2.3, 3), 12)},
		{"circulant", regular.Build()},
		{"circulant+K6+path", flatGraph()},
		{"multicommunity", gen.MultiCommunity(8, 25, 10, 15, 18, 1)},
		{"bipartite-kmax-core", bipartiteCoreGraph()},
		{"independent-set", graph.FromEdges(40, nil)},
	}
	paths := map[string][]string{}
	for _, tg := range graphs {
		kc := kcore.Decompose(tg.g)
		for _, h := range []int{2, 3, 4, 5} {
			o := motif.Clique{H: h}
			what := fmt.Sprintf("%s/h=%d", tg.name, h)
			checkSameRestriction(t, what, tg.g, o, kc)
			if tg.g.M() == 0 {
				paths["no edges"] = append(paths["no edges"], what)
				continue
			}
			cand := newCandidates(tg.g)
			top := cand.kmaxCores()
			if top.kc.KMax != kc.KMax {
				t.Fatalf("%s: candidate kmax %d, full peel %d", what, top.kc.KMax, kc.KMax)
			}
			var path []string
			switch {
			case top.ids == nil:
				path = append(path, "whole graph for K")
			case top.exact == cand.bound():
				path = append(path, "kmax in the first set")
			default:
				path = append(path, "retry")
			}
			if r := classicalRestriction(tg.g, o, nil); r != nil && top.ids != nil {
				if r.cores.ids == nil {
					path = append(path, "whole graph for X")
				} else if r.x < top.exact {
					path = append(path, "X from a lower set")
				}
			}
			for _, p := range path {
				paths[p] = append(paths[p], what)
			}
		}
	}
	for _, p := range []string{"kmax in the first set", "retry", "X from a lower set", "whole graph for K", "whole graph for X", "no edges"} {
		if len(paths[p]) == 0 {
			t.Errorf("no shape takes the path %q", p)
		}
	}
	if !slices.Contains(paths["retry"], "stars+K6/h=3") || !slices.Contains(paths["kmax in the first set"], "gnm+K30/h=3") ||
		!slices.Contains(paths["X from a lower set"], "gnm+K30/h=3") || !slices.Contains(paths["whole graph for X"], "circulant+K6+path/h=3") ||
		!slices.Contains(paths["whole graph for K"], "circulant/h=3") {
		t.Errorf("a shape left the path it was built for: %v", paths)
	}
}

// BenchmarkClassicalRestriction times locating K and X for triangles on
// a power-law graph with a planted K48 and shuffled ids, shaped like the
// DBLP stand-in at a quarter of its size: from degree-threshold
// candidate sets (threshold), and from a classical decomposition of the
// whole graph (full-peel).
func BenchmarkClassicalRestriction(b *testing.B) {
	g := testutil.Relabel(withPlantedClique(gen.ChungLu(106000, 262000, 2.35, 1), 48), 1)
	o := motif.Clique{H: 3}
	b.Run("threshold", func(b *testing.B) {
		for b.Loop() {
			classicalRestriction(g, o, nil)
		}
	})
	b.Run("full-peel", func(b *testing.B) {
		for b.Loop() {
			classicalRestriction(g, o, kcore.Decompose(g))
		}
	})
}

// BenchmarkDecomposeWithin times the two halves of a restricted
// decomposition, counting G[X] and peeling it, for triangles and
// 4-cliques on the planted-K48 graph of BenchmarkClassicalRestriction,
// whose x-core is dense enough for bit rows.
func BenchmarkDecomposeWithin(b *testing.B) {
	g := testutil.Relabel(withPlantedClique(gen.ChungLu(106000, 262000, 2.35, 1), 48), 1)
	for _, h := range []int{3, 4} {
		o := motif.Clique{H: h}
		r := classicalRestriction(g, o, nil)
		x := r.cores.keep(r.x).Graph
		total, deg := o.CountAndDegrees(x)
		b.Run(fmt.Sprintf("h=%d/count", h), func(b *testing.B) {
			for b.Loop() {
				o.CountAndDegrees(x)
			}
		})
		b.Run(fmt.Sprintf("h=%d/peel", h), func(b *testing.B) {
			for b.Loop() {
				peel(context.Background(), x, o, total, append([]int64(nil), deg...))
			}
		})
	}
}
