package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
)

func TestQueryDensestBasic(t *testing.T) {
	// Triangle {0,1,2} plus a pendant path 2-3-4. Querying {4} forces the
	// answer to include vertex 4.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	res, err := QueryDensest(g, []int32{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Vertices {
		if v == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("query vertex missing from %v", res.Vertices)
	}
	want, _ := queryDensestBrute(g, []int32{4})
	if res.Density.Cmp(want) != 0 {
		t.Fatalf("density %v, brute %v", res.Density, want)
	}
}

func TestQueryDensestUnconstrainedMatchesEDS(t *testing.T) {
	// Querying a vertex of the true EDS returns the EDS itself.
	g := graph.FromEdges(7, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4
		{3, 4}, {4, 5}, {5, 6},
	})
	eds := coreExact(t, g, motif.Clique{H: 2}, DefaultOptions())
	res, err := QueryDensest(g, []int32{eds.Vertices[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Density.Cmp(eds.Density) != 0 {
		t.Fatalf("anchored %v != EDS %v", res.Density, eds.Density)
	}
}

func TestQueryDensestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(9, 18, seed)
		queries := [][]int32{{0}, {0, 1}, {2, 5, 7}}
		for _, q := range queries {
			res, err := QueryDensest(g, q, nil)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			want, _ := queryDensestBrute(g, q)
			if res.Density.Cmp(want) != 0 {
				t.Logf("seed %d q=%v: got %v want %v", seed, q, res.Density, want)
				return false
			}
			// All query vertices present.
			set := map[int32]bool{}
			for _, v := range res.Vertices {
				set[v] = true
			}
			for _, qq := range q {
				if !set[qq] {
					t.Logf("seed %d: query %d missing", seed, qq)
					return false
				}
			}
		}
		return true
	}
	// A seed whose optimum for q={0} is exactly x/2: the K4 3-core, inside
	// a sparser anchored 2-core.
	if !f(8958336021951372219) {
		t.Fatal("fixed seed failed")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryDensestErrors(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if _, err := QueryDensest(g, nil, nil); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := QueryDensest(g, []int32{99}, nil); err == nil {
		t.Fatal("out-of-range query accepted")
	}
}

func TestQueryDensestIsolatedQuery(t *testing.T) {
	// The query vertex is isolated: the best anchored subgraph still must
	// contain it.
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	res, err := QueryDensest(g, []int32{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := queryDensestBrute(g, []int32{4})
	if res.Density.Cmp(want) != 0 {
		t.Fatalf("density %v, brute %v", res.Density, want)
	}
}

// queryDensestBrute is the reference implementation: it enumerates all
// vertex subsets containing the query set (only viable for tiny graphs).
func queryDensestBrute(g *graph.Graph, query []int32) (rational.R, []int32) {
	n := g.N()
	inQ := make([]bool, n)
	for _, q := range query {
		inQ[q] = true
	}
	best := rational.Zero
	var bestSet []int32
	var vs []int32
	for mask := 0; mask < (1 << n); mask++ {
		ok := true
		for q := 0; q < n; q++ {
			if inQ[q] && mask&(1<<q) == 0 {
				ok = false
				break
			}
		}
		if !ok || mask == 0 {
			continue
		}
		vs = vs[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				vs = append(vs, int32(v))
			}
		}
		sub := g.Induced(vs)
		d := rational.New(int64(sub.M()), int64(len(vs)))
		if d.Greater(best) {
			best = d
			bestSet = append([]int32(nil), vs...)
		}
	}
	return best, bestSet
}
