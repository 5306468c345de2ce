package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestERDeterministic(t *testing.T) {
	a := ER(200, 0.05, 7)
	b := ER(200, 0.05, 7)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	c := ER(200, 0.05, 8)
	if a.M() == c.M() && a.N() == c.N() {
		// Different seeds could coincide in M; compare an edge sample.
		same := true
		a.Edges(func(u, v int) {
			if !c.HasEdge(u, v) {
				same = false
			}
		})
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestERDensity(t *testing.T) {
	n, p := 500, 0.02
	g := ER(n, p, 3)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.M())
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("ER edges = %f, want ≈ %f", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEREdgeCases(t *testing.T) {
	if g := ER(10, 0, 1); g.M() != 0 {
		t.Fatal("p=0 produced edges")
	}
	if g := ER(6, 1, 1); g.M() != 15 {
		t.Fatalf("p=1 gave %d edges, want 15", g.M())
	}
}

func TestGNM(t *testing.T) {
	g := GNM(100, 300, 5)
	if g.N() != 100 {
		t.Fatalf("n = %d", g.N())
	}
	// Dedup and self-loop removal can lose a few edges.
	if g.M() > 300 || g.M() < 250 {
		t.Fatalf("m = %d, want ≈ 300", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMATDefault(1024, 8000, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// R-MAT must be skewed: the max degree should far exceed the average.
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("R-MAT not skewed: max=%d avg=%f", g.MaxDegree(), avg)
	}
}

func TestSSCAHasCliques(t *testing.T) {
	g := SSCA(500, 12, 13)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The builder assigns cliques over contiguous ranges; at least one
	// vertex must have degree ≥ 8 (from a size-≥9 clique, which appears
	// w.h.p. with maxClique 12 over 500 vertices).
	if g.MaxDegree() < 8 {
		t.Fatalf("SSCA max degree %d suspiciously small", g.MaxDegree())
	}
}

func TestChungLuMatchesTargets(t *testing.T) {
	n, m := 2000, 10000
	g := ChungLu(n, m, 2.5, 17)
	if g.N() != n {
		t.Fatalf("n = %d", g.N())
	}
	if math.Abs(float64(g.M())-float64(m))/float64(m) > 0.2 {
		t.Fatalf("m = %d, want ≈ %d", g.M(), m)
	}
	// Power-law: vertex 0 (heaviest) should have much higher degree than
	// the median vertex.
	if g.Degree(0) < 5*g.Degree(n/2)+5 {
		t.Fatalf("no skew: deg(0)=%d deg(mid)=%d", g.Degree(0), g.Degree(n/2))
	}
}

func TestCollaborationStructure(t *testing.T) {
	g := Collaboration(300, 150, 5, 23)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 {
		t.Fatalf("n = %d", g.N())
	}
	// Zipf skew: author 0 collaborates far more than average.
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(g.Degree(0)) < 3*avg {
		t.Fatalf("no hub: deg(0)=%d avg=%f", g.Degree(0), avg)
	}
}

func TestPlantedPPIModules(t *testing.T) {
	g, modules := PlantedPPI(800, 1600, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(modules) != 3 {
		t.Fatalf("modules = %d, want 3", len(modules))
	}
	// Hub module: its first two vertices have high degree.
	hub := modules[1]
	if g.Degree(int(hub[0])) < 10 {
		t.Fatalf("hub degree %d too small", g.Degree(int(hub[0])))
	}
	// All module vertices in range.
	for _, mod := range modules {
		for _, v := range mod {
			if int(v) >= g.N() {
				t.Fatalf("module vertex %d out of range", v)
			}
		}
	}
}

func TestMultiCommunity(t *testing.T) {
	const k, clique, fringe, fringeBase, padSize, padPerRank = 4, 10, 3, 5, 6, 2
	g := MultiCommunity(k, clique, fringe, fringeBase, padSize, padPerRank)
	// Deterministic: the construction has no randomness.
	g2 := MultiCommunity(k, clique, fringe, fringeBase, padSize, padPerRank)
	if g.N() != g2.N() || g.M() != g2.M() {
		t.Fatalf("not deterministic: (%d,%d) vs (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
	}
	// Vertex count: per community i, clique + fringe + i·padPerRank·padSize.
	wantN, wantM := 0, 0
	for i := 0; i < k; i++ {
		pads := i * padPerRank
		wantN += clique + fringe + pads*padSize
		t := fringeBase + i
		wantM += clique*(clique-1)/2 + fringe*t + pads*(padSize*(padSize-1)/2+1)
	}
	if g.N() != wantN {
		t.Fatalf("n = %d, want %d", g.N(), wantN)
	}
	if g.M() != wantM {
		t.Fatalf("m = %d, want %d", g.M(), wantM)
	}
	// Exactly k connected components, with sizes ascending in i.
	comps := g.Induced(allVertices(g)).ConnectedComponents()
	if len(comps) != k {
		t.Fatalf("components = %d, want %d", len(comps), k)
	}
}

func allVertices(g *graph.Graph) []int32 {
	vs := make([]int32, g.N())
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}
