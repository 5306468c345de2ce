package kcore

import (
	"fmt"
	"testing"

	"repro/internal/bucketq"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// referenceDecompose is the generic bucketq peel Decompose replaced: pop
// the minimum, then lower every neighbour's key by one, clamped at the
// current core. Decompose must reproduce it field for field.
func referenceDecompose(g *graph.Graph) *Decomposition {
	n := g.N()
	keys := make([]int64, n)
	for v := 0; v < n; v++ {
		keys[v] = int64(g.Degree(v))
	}
	q := bucketq.New(keys)
	d := &Decomposition{
		Core:  make([]int32, n),
		Order: make([]int32, 0, n),
		Pos:   make([]int32, n),
	}
	cur := int64(0)
	for {
		v, k, ok := q.PopMin()
		if !ok {
			break
		}
		if k > cur {
			cur = k
		}
		d.Core[v] = int32(cur)
		if int32(cur) > d.KMax {
			d.KMax = int32(cur)
		}
		d.Pos[v] = int32(len(d.Order))
		d.Order = append(d.Order, int32(v))
		for _, w := range g.Neighbors(v) {
			q.DecreaseTo(int(w), q.Key(int(w))-1, cur)
		}
	}
	return d
}

// TestDecomposeMatchesReference checks that the dedicated peel loop keeps
// the bucket queue's exact order, ties included: Core, Order, Pos and
// KMax must all equal the reference peel's on shuffled-id generated
// graphs and on the degenerate shapes where bucket handling is easiest
// to get wrong.
func TestDecomposeMatchesReference(t *testing.T) {
	star := graph.NewBuilder(30)
	for v := 1; v < 30; v++ {
		star.AddEdge(0, v)
	}
	clique := graph.NewBuilder(12)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			clique.AddEdge(u, v)
		}
	}
	type namedGraph struct {
		name string
		g    *graph.Graph
	}
	cases := []namedGraph{
		{"empty", graph.FromEdges(0, nil)},
		{"isolated-only", graph.FromEdges(7, nil)},
		{"isolated-mixed", graph.FromEdges(10, [][2]int{{1, 2}, {2, 3}, {1, 3}, {5, 8}})},
		{"star", star.Build()},
		{"clique", clique.Build()},
		{"multicommunity", testutil.Relabel(gen.MultiCommunity(4, 12, 5, 8, 6, 1), 3)},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases,
			namedGraph{fmt.Sprintf("chunglu-%d", seed), testutil.Relabel(gen.ChungLu(2000, 8000, 2.2, seed), seed)},
			namedGraph{fmt.Sprintf("gnm-%d", seed), testutil.Relabel(gen.GNM(500, 1500+500*int(seed), seed), seed)})
	}
	for _, tc := range cases {
		got, want := Decompose(tc.g), referenceDecompose(tc.g)
		if got.KMax != want.KMax {
			t.Errorf("%s: KMax %d, want %d", tc.name, got.KMax, want.KMax)
		}
		if len(got.Order) != len(want.Order) {
			t.Fatalf("%s: %d vertices peeled, want %d", tc.name, len(got.Order), len(want.Order))
		}
		for i := range want.Order {
			if got.Order[i] != want.Order[i] {
				t.Fatalf("%s: Order[%d] = %d, want %d", tc.name, i, got.Order[i], want.Order[i])
			}
		}
		for v := range want.Core {
			if got.Core[v] != want.Core[v] || got.Pos[v] != want.Pos[v] {
				t.Fatalf("%s: vertex %d has core %d at %d, want core %d at %d",
					tc.name, v, got.Core[v], got.Pos[v], want.Core[v], want.Pos[v])
			}
		}
	}
}

// BenchmarkDecompose times the classical core peel that every
// clique.NewLister runs for its degeneracy order, on a power-law graph
// with shuffled ids.
func BenchmarkDecompose(b *testing.B) {
	g := testutil.Relabel(gen.ChungLu(40000, 200000, 2.1, 1), 1)
	for b.Loop() {
		Decompose(g)
	}
}

// BenchmarkReferenceDecompose times the generic bucketq peel on the same
// graph, for comparison with BenchmarkDecompose.
func BenchmarkReferenceDecompose(b *testing.B) {
	g := testutil.Relabel(gen.ChungLu(40000, 200000, 2.1, 1), 1)
	for b.Loop() {
		referenceDecompose(g)
	}
}
