package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestBuilderDedupesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self-loop survived: deg(2)=%d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.N() != 10 {
		t.Fatalf("N = %d, want 10", g.N())
	}
}

func TestHasEdge(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false}, {2, 3, true}, {0, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesVisitsEachOnce(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	var got [][2]int
	g.Edges(func(u, v int) { got = append(got, [2]int{u, v}) })
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	sub := g.Induced([]int32{1, 3, 2})
	if sub.N() != 3 {
		t.Fatalf("N = %d, want 3", sub.N())
	}
	// Local ids are sorted original ids: 1→0, 2→1, 3→2.
	if !reflect.DeepEqual(sub.Orig, []int32{1, 2, 3}) {
		t.Fatalf("Orig = %v", sub.Orig)
	}
	if sub.M() != 3 { // edges 1-2, 2-3, 1-3
		t.Fatalf("M = %d, want 3", sub.M())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedDedupesInput(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	sub := g.Induced([]int32{1, 1, 0, 1})
	if sub.N() != 2 || sub.M() != 1 {
		t.Fatalf("got n=%d m=%d, want 2,1", sub.N(), sub.M())
	}
}

// TestInducedKeepMatchesInduced: Induced (on shuffled input with
// duplicates), InducedKeep and InducedSorted must all build the subgraph
// a pairwise HasEdge reference builds — on random vertex sets, the empty
// set and the full vertex set, over graphs of varying size, so the
// recycled dense index is reused across graphs.
func TestInducedKeepMatchesInduced(t *testing.T) {
	// matches reports whether sub is the subgraph of g induced by vs
	// (sorted, without duplicates), by the reference.
	matches := func(g *Graph, vs []int32, sub *Subgraph) bool {
		if !slices.Equal(sub.Orig, vs) || sub.N() != len(vs) || sub.Validate() != nil {
			return false
		}
		m := 0
		for i, u := range vs {
			var want []int32
			for j, v := range vs {
				if g.HasEdge(int(u), int(v)) {
					want = append(want, int32(j))
				}
			}
			if !slices.Equal(sub.Neighbors(i), want) {
				return false
			}
			m += len(want)
		}
		return sub.M() == m/2
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		random := func(int) bool { return rng.Intn(3) != 0 }
		for _, keep := range []func(int) bool{random, func(int) bool { return false }, func(int) bool { return true }} {
			in := make([]bool, n)
			var vs []int32
			for v := range in {
				if in[v] = keep(v); in[v] {
					vs = append(vs, int32(v))
				}
			}
			// Induced's input: vs shuffled, with about a third repeated.
			mixed := slices.Clone(vs)
			for _, v := range vs {
				if rng.Intn(3) == 0 {
					mixed = append(mixed, v)
				}
			}
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			for _, got := range []*Subgraph{
				g.Induced(mixed),
				g.InducedKeep(func(v int) bool { return in[v] }),
				g.InducedSorted(slices.Clone(vs)),
			} {
				if !matches(g, vs, got) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comps := g.ConnectedComponents()
	if len(comps) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(comps[0]))
	}
}

func TestBFSFarthest(t *testing.T) {
	g := path(5)
	far, dist := g.BFSFarthest(0)
	if far != 4 || dist != 4 {
		t.Fatalf("got (%d,%d), want (4,4)", far, dist)
	}
}

func TestComputeStatsPath(t *testing.T) {
	g := path(6)
	s := g.ComputeStats()
	if s.Diameter != 5 {
		t.Fatalf("diameter = %d, want 5", s.Diameter)
	}
	if s.Components != 1 {
		t.Fatalf("components = %d, want 1", s.Components)
	}
	if s.MaxDegree != 2 {
		t.Fatalf("max degree = %d, want 2", s.MaxDegree)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := FromEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", g2.N(), g2.M(), g.N(), g.M())
	}
	g.Edges(func(u, v int) {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge %d-%d lost in round trip", u, v)
		}
	})
}

func TestFromEdgeListComments(t *testing.T) {
	in := "# comment\n% also comment\n0 1\n\n1 2\n" +
		"  # indented comment\r\n\r\n" + // CRLF comment and blank line
		"2\t3\r\n" + // tab-separated, CRLF
		" 3 4 extra fields\t9\n" + // fields past the second ignored
		"\u00a04\u20035\u00a0\n" + // Unicode whitespace, as strings.Fields splits
		"+5 06\n" // a sign and leading zeros, as strconv.Atoi reads them
	g, err := FromEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	g.Edges(func(u, v int) { got = append(got, [2]int{u, v}) })
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestFromEdgeListErrors(t *testing.T) {
	for in, want := range map[string]string{
		"0\n":          `edge list line 1: want two fields, got "0"`,
		"a b\n":        `edge list line 1: bad vertex "a": strconv.Atoi: parsing "a": invalid syntax`,
		"0 x\n":        `edge list line 1: bad vertex "x": strconv.Atoi: parsing "x": invalid syntax`,
		"-1 2\n":       `edge list line 1: negative vertex id`,
		"0 1\r\n2\r\n": `edge list line 2: want two fields, got "2"`,
		"0 1\n1\t-3\n": `edge list line 2: negative vertex id`,
		"0\t1x\r\n":    `edge list line 1: bad vertex "1x": strconv.Atoi: parsing "1x": invalid syntax`,
		// Overflowing int, and overflowing the int32 ids a graph stores.
		"0 99999999999999999999\n": `edge list line 1: bad vertex "99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`,
		"2147483648 0\n":           `edge list line 1: vertex id 2147483648 exceeds 2147483647`,
	} {
		_, err := FromEdgeList(strings.NewReader(in))
		if err == nil || err.Error() != want {
			t.Errorf("input %q: error %v, want %s", in, err, want)
		}
	}
}

// TestFromEdgeListAllocs: parsing allocates per input, not per line —
// only the Builder's growing edge arrays, the scanner buffer and the
// build allocate, so 10,000 lines cost far fewer allocations than lines.
func TestFromEdgeListAllocs(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&in, "%d\t%d\r\n", i, (i*7919)%10000)
	}
	text := in.String()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := FromEdgeList(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("FromEdgeList made %.0f allocations for 10000 lines", allocs)
	}
}

// TestValidateCatchesCorruption corrupts the CSR arrays of a path
// 0-1-2 and requires Validate to reject each corruption: an arc whose
// reverse is missing, and offsets that do not delimit the lists.
func TestValidateCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(g *Graph){
		// 0 lists 2, 2 does not list 0.
		"extra arc": func(g *Graph) { g.off, g.nbr = []int{0, 2, 4, 5}, []int32{1, 2, 0, 2, 1} },
		// 2 lists 0 instead of 1.
		"rewired arc":      func(g *Graph) { g.nbr[g.off[2]] = 0 },
		"offsets decrease": func(g *Graph) { g.off[1] = 4 },
		"offsets short":    func(g *Graph) { g.off = g.off[:3] },
	} {
		g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted adjacency", name)
		}
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []int32{1, 3, 5, 7, 9}
	b := []int32{2, 3, 5, 8, 9, 10}
	got := IntersectSorted(a, b, nil)
	want := []int32{3, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if out := IntersectSorted(nil, b, nil); len(out) != 0 {
		t.Fatalf("nil ∩ b = %v, want empty", out)
	}
}

// Property: building from random edge lists always yields a valid graph,
// and rebuilding from its own edge list is the identity.
func TestBuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := NewBuilder(n)
		for i := 0; i < 40; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("invalid graph: %v", err)
			return false
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			return false
		}
		g2, err := FromEdgeList(&buf)
		if err != nil {
			return false
		}
		return g2.M() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawAlphaOnStar(t *testing.T) {
	// A star has one huge degree and many 1s; α should be finite and > 1.
	b := NewBuilder(50)
	for i := 1; i < 50; i++ {
		b.AddEdge(0, i)
	}
	a := b.Build().PowerLawAlpha()
	if a <= 1 || a > 20 {
		t.Fatalf("alpha = %f out of plausible range", a)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	c := g.Clone()
	c.nbr[0] = 2
	if g.nbr[0] != 1 {
		t.Fatal("Clone shares adjacency storage")
	}
}
