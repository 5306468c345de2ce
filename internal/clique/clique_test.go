package clique

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func k5() *graph.Graph {
	var edges [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return graph.FromEdges(5, edges)
}

func TestCountK5(t *testing.T) {
	g := k5()
	// C(5,h) cliques of each size.
	want := map[int]int64{1: 5, 2: 10, 3: 10, 4: 5, 5: 1, 6: 0}
	l := NewLister(g)
	for h, w := range want {
		if got := l.Count(h); got != w {
			t.Errorf("Count(%d) = %d, want %d", h, got, w)
		}
	}
}

func TestCountTrianglePlusEdge(t *testing.T) {
	// Figure 2(a) of the paper: A-B-C triangle? Actually a path square —
	// use the paper's 4-vertex graph with edges AB, BC, BD, CD: one
	// triangle (B,C,D).
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}})
	l := NewLister(g)
	if got := l.Count(3); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
	deg := l.Degrees(3)
	want := []int64{0, 1, 1, 1}
	for v := range want {
		if deg[v] != want[v] {
			t.Fatalf("deg = %v, want %v", deg, want)
		}
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(12, 30, seed)
		l := NewLister(g)
		for h := 2; h <= 5; h++ {
			if l.Count(h) != testutil.BruteForceCliqueCount(g, h) {
				t.Logf("seed %d h %d: %d != %d", seed, h, l.Count(h), testutil.BruteForceCliqueCount(g, h))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreesMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(12, 30, seed)
		l := NewLister(g)
		for h := 2; h <= 4; h++ {
			got := l.Degrees(h)
			want := testutil.BruteForceCliqueDegrees(g, h)
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachVisitsDistinctCliques(t *testing.T) {
	g := gen.GNM(15, 40, 3)
	l := NewLister(g)
	seen := map[key]bool{}
	l.ForEach(3, func(c []int32) {
		k := cliqueKey(c)
		if seen[k] {
			t.Fatalf("clique %v visited twice", c)
		}
		seen[k] = true
		// Verify it is actually a clique.
		for i := range c {
			for j := i + 1; j < len(c); j++ {
				if !g.HasEdge(int(c[i]), int(c[j])) {
					t.Fatalf("%v is not a clique", c)
				}
			}
		}
	})
}

func TestForEachContaining(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(12, 30, seed)
		l := NewLister(g)
		for h := 2; h <= 4; h++ {
			deg := l.Degrees(h)
			for v := 0; v < g.N(); v++ {
				var cnt int64
				ForEachContaining(g, v, h, nil, func(others []int32) {
					cnt++
					if len(others) != h-1 {
						t.Fatalf("others = %v, want %d members", others, h-1)
					}
					// All others adjacent to v and to each other.
					for i, u := range others {
						if !g.HasEdge(v, int(u)) {
							t.Fatalf("non-neighbor in clique")
						}
						for j := i + 1; j < len(others); j++ {
							if !g.HasEdge(int(u), int(others[j])) {
								t.Fatalf("others not mutually adjacent")
							}
						}
					}
				})
				if cnt != deg[v] {
					t.Logf("seed %d h=%d v=%d: containing=%d degree=%d", seed, h, v, cnt, deg[v])
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

func TestForEachContainingRespectsAlive(t *testing.T) {
	g := k5()
	alive := []bool{true, true, true, false, true}
	var cnt int
	ForEachContaining(g, 0, 3, alive, func([]int32) { cnt++ })
	// Triangles containing 0 among {0,1,2,4}: C(3,2) = 3.
	if cnt != 3 {
		t.Fatalf("cnt = %d, want 3", cnt)
	}
}

// key identifies a clique of up to 8 members: its member ids in
// increasing order, padded with -1.
type key [8]int32

// cliqueKey returns the key of a clique given in any member order.
func cliqueKey(members []int32) key {
	k := key{-1, -1, -1, -1, -1, -1, -1, -1}
	copy(k[:], slices.Sorted(slices.Values(members)))
	return k
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	if got := Count(empty, 3); got != 0 {
		t.Fatalf("empty count = %d", got)
	}
	single := graph.FromEdges(1, nil)
	if got := Count(single, 2); got != 0 {
		t.Fatalf("single count = %d", got)
	}
	if got := Count(single, 1); got != 1 {
		t.Fatalf("1-clique count = %d, want 1", got)
	}
}
