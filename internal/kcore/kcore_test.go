package kcore

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// figure3 is the 8-vertex example graph of the paper's Figure 3(a):
// vertices A..H = 0..7. {A,B,C,D} form a 4-clique (the 3-core), E and F
// hang off it, G-H is a separate edge.
func figure3() *graph.Graph {
	return graph.FromEdges(8, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // ABCD clique
		{3, 4}, {4, 5}, {2, 5}, // E,F attach
		{6, 7}, // G-H
	})
}

func TestDecomposeFigure3(t *testing.T) {
	g := figure3()
	d := Decompose(g)
	want := []int32{3, 3, 3, 3, 2, 2, 1, 1}
	for v, w := range want {
		if d.Core[v] != w {
			t.Fatalf("core[%d] = %d, want %d (all %v)", v, d.Core[v], w, d.Core)
		}
	}
	if d.KMax != 3 {
		t.Fatalf("kmax = %d, want 3", d.KMax)
	}
}

func TestCoreSubgraphNested(t *testing.T) {
	g := figure3()
	d := Decompose(g)
	sizes := make([]int, d.KMax+2)
	for k := int32(0); k <= d.KMax+1; k++ {
		sizes[k] = CoreSubgraph(g, d, k).N()
	}
	for k := 1; k < len(sizes); k++ {
		if sizes[k] > sizes[k-1] {
			t.Fatalf("cores not nested: |%d-core|=%d > |%d-core|=%d", k, sizes[k], k-1, sizes[k-1])
		}
	}
	if sizes[d.KMax+1] != 0 {
		t.Fatalf("(kmax+1)-core nonempty: %d", sizes[d.KMax+1])
	}
}

func TestKMaxCore(t *testing.T) {
	g := figure3()
	core, kmax := KMaxCore(g)
	if kmax != 3 || core.N() != 4 {
		t.Fatalf("kmax=%d n=%d, want 3,4", kmax, core.N())
	}
}

// bruteCore computes core numbers from the definition by repeated peeling
// at every k.
func bruteCore(g *graph.Graph) []int32 {
	n := g.N()
	core := make([]int32, n)
	for k := int32(1); ; k++ {
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		for {
			removed := false
			for v := 0; v < n; v++ {
				if !alive[v] {
					continue
				}
				deg := 0
				for _, w := range g.Neighbors(v) {
					if alive[w] {
						deg++
					}
				}
				if int32(deg) < k {
					alive[v] = false
					removed = true
				}
			}
			if !removed {
				break
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestDecomposeMatchesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(20, 45, seed)
		d := Decompose(g)
		want := bruteCore(g)
		for v := range want {
			if d.Core[v] != want[v] {
				t.Logf("seed %d: core[%d]=%d want %d", seed, v, d.Core[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegeneracyOrderProperty(t *testing.T) {
	// Every vertex has at most KMax neighbors later in the order.
	g := gen.GNM(60, 240, 7)
	d := Decompose(g)
	order, rank := d.Order, d.Pos
	if len(order) != g.N() {
		t.Fatalf("order length %d, want %d", len(order), g.N())
	}
	for v := 0; v < g.N(); v++ {
		later := 0
		for _, w := range g.Neighbors(v) {
			if rank[w] > rank[v] {
				later++
			}
		}
		if int32(later) > d.KMax {
			t.Fatalf("vertex %d has %d later neighbors > kmax %d", v, later, d.KMax)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	d := Decompose(g)
	if d.KMax != 0 || len(d.Core) != 0 {
		t.Fatalf("empty graph: kmax=%d len=%d", d.KMax, len(d.Core))
	}
}
