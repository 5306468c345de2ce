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
// against the full peel for h ∈ {3, 4, 5}, serial and with striped
// counting, wherever the classical x-core is a strict subset of the
// graph, and that DecomposeWithin declines exactly where it should.
func TestDecomposeWithinMatchesDecompose(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		// strict and restricted report, per h = 3, 4, 5, whether the
		// classical x-core X is a strict subset of the graph, and whether
		// it holds at most half of the adjacency, so that DecomposeWithin
		// restricts.
		strict, restricted [3]bool
	}{
		// Every vertex of the multi-community graph lies in the classical
		// 15-core that triangles need; for h = 4, 5 X misses only a few
		// fringe vertices.
		{"multicommunity", gen.MultiCommunity(8, 25, 10, 15, 18, 1), [3]bool{false, true, true}, [3]bool{}},
		{"chunglu+K12", withPlantedClique(gen.ChungLu(600, 2400, 2.3, 3), 12), [3]bool{true, true, true}, [3]bool{true, true, true}},
		{"chunglu+K20", withPlantedClique(gen.ChungLu(1500, 4500, 2.1, 7), 20), [3]bool{true, true, true}, [3]bool{true, true, true}},
		{"bipartite-kmax-core", bipartiteCoreGraph(), [3]bool{}, [3]bool{}},
	}
	for _, tc := range cases {
		kc := kcore.Decompose(tc.g)
		for i, h := range []int{3, 4, 5} {
			o := motif.Clique{H: h}
			what := fmt.Sprintf("%s/h=%d", tc.name, h)
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
	for _, o := range []motif.Oracle{motif.Clique{H: 2}, motif.Star{X: 2}, motif.Diamond{}} {
		g := cases[0].g
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
// vertex pairs) for h ∈ {3, 4, 5}: wherever X is a strict subset, every
// core number at or above Floor must be exact and both tracked densities
// real. It skips the size rule, which would decline most small graphs.
// The committed corpus (testdata/fuzz/FuzzDecomposeWithin) holds
// graphs whose classical x-core is a strict subset for h = 3, 4 and 5,
// and one whose x-core is the whole graph.
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
		o := motif.Clique{H: 3 + int(hsel)%3}
		kc := kcore.Decompose(g)
		r := classicalRestriction(g, o, kc)
		if r == nil {
			return
		}
		d, err := r.decompose(context.Background(), g, o, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkWithin(t, o.Name(), g, o, kc, d)
	})
}
