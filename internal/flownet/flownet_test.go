package flownet

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/clique"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/rational"
	"repro/internal/testutil"
)

func maxDensity(g *graph.Graph, o motif.Oracle) rational.R {
	d, _ := testutil.BruteForceDensest(g, func(sub *graph.Graph) int64 {
		return motif.Count(o, sub)
	})
	return d
}

// nextBelow returns the largest fraction a/b < r with 1 ≤ b ≤ n. No
// subgraph of an n-vertex graph has a density strictly between it and r.
func nextBelow(r rational.R, n int) rational.R {
	best := rational.New(0, 1)
	for b := int64(1); b <= int64(n); b++ {
		if a := (r.Num*b - 1) / r.Den; a >= 0 && rational.New(a, b).Greater(best) {
			best = rational.New(a, b)
		}
	}
	return best
}

// builder builds a network for the probe α = num/den.
type builder func(num, den int64) (*Net, error)

// cut builds and solves the network at α and returns the source side's
// vertices with their exact Ψ-density.
func cut(t *testing.T, g *graph.Graph, o motif.Oracle, build builder, alpha rational.R) ([]int32, rational.R) {
	t.Helper()
	net, err := build(alpha.Num, alpha.Den)
	if err != nil {
		t.Fatal(err)
	}
	vs := net.SolveVertices()
	if len(vs) == 0 {
		return nil, rational.Zero
	}
	return vs, rational.New(motif.Count(o, g.Induced(vs).Graph), int64(len(vs)))
}

// checkDecision checks the exact decision the Dinkelbach searches rely
// on, against the brute-force optimum ρ*: at α = ρ* the cut's vertex side
// is empty (the tie is exact); at the next-lower rational it is a densest
// subgraph; below that it is a subgraph strictly denser than α; above ρ*
// it is empty.
func checkDecision(t *testing.T, name string, g *graph.Graph, o motif.Oracle, build builder, seed int64) bool {
	t.Helper()
	opt := maxDensity(g, o)
	if vs, _ := cut(t, g, o, build, opt); len(vs) != 0 {
		t.Logf("seed %d %s: α = ρ* = %v left %v on the source side", seed, name, opt, vs)
		return false
	}
	if vs, d := cut(t, g, o, build, nextBelow(opt, g.N())); d.Cmp(opt) != 0 {
		t.Logf("seed %d %s: α just below ρ* = %v gave %v of density %v", seed, name, opt, vs, d)
		return false
	}
	for _, alpha := range []rational.R{rational.New(0, 1), rational.New(opt.Num, 2*opt.Den)} {
		if _, d := cut(t, g, o, build, alpha); !d.Greater(alpha) {
			t.Logf("seed %d %s: α = %v below ρ* = %v gave density %v", seed, name, alpha, opt, d)
			return false
		}
	}
	for _, alpha := range []rational.R{rational.New(opt.Num+1, opt.Den), rational.New(opt.Num+opt.Den, opt.Den)} {
		if vs, _ := cut(t, g, o, build, alpha); len(vs) != 0 {
			t.Logf("seed %d %s: α = %v above ρ* = %v left %v", seed, name, alpha, opt, vs)
			return false
		}
	}
	return true
}

func TestEDSDecision(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(10, 20, seed)
		if g.M() == 0 {
			return true
		}
		o := motif.Clique{H: 2}
		return checkDecision(t, "EDS", g, o, func(num, den int64) (*Net, error) {
			return NewEDSSide(nil, g, nil).Build(num, den)
		}, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCDSDecision(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(10, 24, seed)
		for _, h := range []int{3, 4} {
			o := motif.Clique{H: h}
			if motif.Count(o, g) == 0 {
				continue
			}
			cs := NewCliqueSide(g, h)
			ok := checkDecision(t, "CDS", g, o, func(num, den int64) (*Net, error) {
				return NewCDSSide(nil, g.N(), cs).Build(num, den)
			}, seed)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPDSDecisionGroupedAndUngrouped(t *testing.T) {
	pats := []*pattern.Pattern{pattern.Star(2), pattern.Diamond(), pattern.CStar(), pattern.Book(2)}
	f := func(seed int64) bool {
		g := gen.GNM(9, 20, seed)
		for _, p := range pats {
			o := motif.For(p)
			if motif.Count(o, g) == 0 {
				continue
			}
			for _, grouped := range []bool{false, true} {
				ps := NewPatternSide(g, o, grouped)
				ok := checkDecision(t, p.Name(), g, o, func(num, den int64) (*Net, error) {
					return NewPDSSide(nil, g.N(), ps).Build(num, den)
				}, seed)
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedMinCutMatchesUngrouped is Lemma 11: construct+ preserves the
// min-cut decision for every alpha.
func TestGroupedMinCutMatchesUngrouped(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(9, 20, seed)
		p := pattern.Diamond()
		o := motif.For(p)
		grouped := NewPatternSide(g, o, true)
		plain := NewPatternSide(g, o, false)
		for _, alpha := range []rational.R{
			rational.New(1, 10), rational.New(1, 2), rational.New(1, 1), rational.New(3, 2), rational.New(5, 2),
		} {
			a, err := NewPDSSide(nil, g.N(), grouped).Build(alpha.Num, alpha.Den)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewPDSSide(nil, g.N(), plain).Build(alpha.Num, alpha.Den)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := len(a.SolveVertices()) > 0, len(b.SolveVertices()) > 0; fa != fb {
				t.Logf("seed %d alpha %v: grouped found=%v plain found=%v", seed, alpha, fa, fb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupingCollapsesSharedVertexSets(t *testing.T) {
	// Square + K4: the K4 carries three 4-cycles on one vertex set → one
	// group of size 3 plus one group of size 1 (Figure 6's structure).
	g := graph.FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
	})
	ps := NewPatternSide(g, motif.Diamond{}, true)
	if len(ps.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(ps.Groups))
	}
	counts := []int64{ps.Count[0], ps.Count[1]}
	if !(counts[0] == 1 && counts[1] == 3 || counts[0] == 3 && counts[1] == 1) {
		t.Fatalf("group sizes = %v, want {1,3}", counts)
	}
	plain := NewPatternSide(g, motif.Diamond{}, false)
	if len(plain.Groups) != 4 {
		t.Fatalf("ungrouped nodes = %d, want 4", len(plain.Groups))
	}
}

// TestBuildIntoMatchesFresh sweeps α rebuilding every network family into
// one recycled arena, checking the decision (and witness) against a fresh
// build at each step — the allocation-reuse contract the flow-search
// sides depend on.
func TestBuildIntoMatchesFresh(t *testing.T) {
	sameVerts := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	alphas := []rational.R{
		rational.New(1, 10), rational.New(2, 5), rational.New(9, 10),
		rational.New(3, 2), rational.New(5, 2), rational.New(4, 1),
	}
	// sweep rebuilds one family through one recycled arena, comparing
	// each build's cut with a fresh build's.
	sweep := func(seed int64, name string, build func(f *flow.Network, a rational.R) (*Net, error)) {
		var f *flow.Network
		for _, a := range alphas {
			reused, err := build(f, a)
			if err != nil {
				t.Fatal(err)
			}
			f = reused.Network
			fresh, err := build(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			if !sameVerts(reused.SolveVertices(), fresh.SolveVertices()) {
				t.Fatalf("seed %d %s alpha %v: reused build diverges from fresh", seed, name, a)
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.GNM(10, 24, seed)
		sweep(seed, "EDS", func(f *flow.Network, a rational.R) (*Net, error) {
			return NewEDSSide(f, g, nil).Build(a.Num, a.Den)
		})
		cs := NewCliqueSide(g, 3)
		sweep(seed, "CDS", func(f *flow.Network, a rational.R) (*Net, error) {
			return NewCDSSide(f, g.N(), cs).Build(a.Num, a.Den)
		})
		ps := NewPatternSide(g, motif.Diamond{}, true)
		sweep(seed, "PDS", func(f *flow.Network, a rational.R) (*Net, error) {
			return NewPDSSide(f, g.N(), ps).Build(a.Num, a.Den)
		})
		// Shrinking graphs through one arena, as a component search does.
		cur := g
		sweep(seed, "shrink", func(f *flow.Network, a rational.R) (*Net, error) {
			if cur.N() > 4 && f != nil {
				keep := make([]int32, 0, cur.N()-2)
				for v := 0; v < cur.N()-2; v++ {
					keep = append(keep, int32(v))
				}
				cur = cur.Induced(keep).Graph
			}
			return NewEDSSide(f, cur, nil).Build(a.Num, a.Den)
		})
	}
}

// arena reads a network's arc arrays and CSR index by reflection: the
// addresses of to, cap, off and adj, and whether the index is current
// for the arcs it holds. A field renamed in internal/flow panics here.
func arena(f *flow.Network) (ptrs [4]uintptr, indexed bool) {
	v := reflect.ValueOf(f).Elem()
	for i, name := range []string{"to", "cap", "off", "adj"} {
		ptrs[i] = v.FieldByName(name).Pointer()
	}
	return ptrs, v.FieldByName("indexed").Int() == int64(v.FieldByName("to").Len())
}

// capacities copies a network's residual capacities out by reflection.
func capacities(f *flow.Network) []int64 {
	v := reflect.ValueOf(f).Elem().FieldByName("cap")
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Int()
	}
	return out
}

// TestRecapacitateMatchesFresh solves each family's side at α₁, then
// re-capacitates it at α₂. Before the second run its capacities must
// equal a fresh build's at α₂, arc by arc with every reverse arc at 0,
// and the run must give the same max-flow value and minimal source side,
// on the same arc arrays and CSR index, which stays current: no arc is
// added and nothing is re-indexed. A probe whose capacities overflow is
// still refused on a re-capacitated side, and leaves it usable.
func TestRecapacitateMatchesFresh(t *testing.T) {
	alphas := []rational.R{
		rational.New(1, 10), rational.New(9, 10), rational.New(3, 2),
		rational.New(5, 2), rational.New(4, 1), rational.New(7, 3),
	}
	const huge = math.MaxInt64 / 3
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.GNM(10, 24, seed)
		cs := NewCliqueSide(g, 3)
		grouped := NewPatternSide(g, motif.Diamond{}, true)
		plain := NewPatternSide(g, motif.Diamond{}, false)
		sides := map[string]func() *Side{
			"EDS":          func() *Side { return NewEDSSide(nil, g, nil) },
			"EDS/anchored": func() *Side { return NewEDSSide(nil, g, []int32{0, 3}) },
			"CDS":          func() *Side { return NewCDSSide(nil, g.N(), cs) },
			"PDS/grouped":  func() *Side { return NewPDSSide(nil, g.N(), grouped) },
			"PDS/plain":    func() *Side { return NewPDSSide(nil, g.N(), plain) },
		}
		for name, side := range sides {
			for i, a1 := range alphas {
				a2 := alphas[(i+1+int(seed))%len(alphas)]
				what := fmt.Sprintf("seed %d %s α %v → %v", seed, name, a1, a2)
				sd := side()
				first, err := sd.Build(a1.Num, a1.Den)
				if err != nil {
					t.Fatal(err)
				}
				first.SolveVertices()
				ptrs, _ := arena(first.Network)
				if _, err := sd.Build(huge, 1); err == nil {
					t.Fatalf("%s: re-capacitated probe at α = %d accepted", what, int64(huge))
				}
				if _, err := sd.Build(1, huge); err == nil {
					t.Fatalf("%s: re-capacitated probe at α = 1/%d accepted", what, int64(huge))
				}
				again, err := sd.Build(a2.Num, a2.Den)
				if err != nil {
					t.Fatal(err)
				}
				if p, indexed := arena(again.Network); p != ptrs || !indexed {
					t.Fatalf("%s: re-capacitation moved the arena (%v) or left the index stale (%v)", what, p != ptrs, !indexed)
				}
				fresh, err := side().Build(a2.Num, a2.Den)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := capacities(again.Network), capacities(fresh.Network); !slices.Equal(got, want) {
					t.Fatalf("%s: re-capacitated arcs %v, fresh build %v", what, got, want)
				}
				if got, want := again.MaxFlow(Source, Sink), fresh.MaxFlow(Source, Sink); got != want {
					t.Fatalf("%s: max flow %d, fresh build %d", what, got, want)
				}
				if got, want := again.MinCutSource(Source), fresh.MinCutSource(Source); !slices.Equal(got, want) {
					t.Fatalf("%s: minimal source side %v, fresh build %v", what, got, want)
				}
				if p, indexed := arena(again.Network); p != ptrs || !indexed {
					t.Fatalf("%s: the re-capacitated run moved the arena or re-indexed it", what)
				}
			}
		}
	}
}

func TestCliqueSideDegreesMatchOracle(t *testing.T) {
	g := gen.GNM(12, 30, 3)
	for _, h := range []int{3, 4} {
		cs := NewCliqueSide(g, h)
		_, deg := motif.Clique{H: h}.CountAndDegrees(g)
		for v := range deg {
			if cs.Deg[v] != deg[v] {
				t.Fatalf("h=%d: side deg[%d]=%d oracle %d", h, v, cs.Deg[v], deg[v])
			}
		}
	}
}

func TestNumNodesAccounting(t *testing.T) {
	g := gen.GNM(12, 30, 4)
	cs := NewCliqueSide(g, 3)
	// 2 + n + #edges (Λ for triangles is the edge set).
	if got, want := cs.NumNodes(g.N()), 2+g.N()+g.M(); got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
}

// anchoredBrute is the densest edge density over supersets of q
// (brute force, n ≤ 12).
func anchoredBrute(g *graph.Graph, q []int32) rational.R {
	var must int
	for _, v := range q {
		must |= 1 << v
	}
	best := rational.Zero
	for mask := 1; mask < 1<<g.N(); mask++ {
		if mask&must != must {
			continue
		}
		var vs []int32
		for v := 0; v < g.N(); v++ {
			if mask&(1<<v) != 0 {
				vs = append(vs, int32(v))
			}
		}
		if d := rational.New(int64(g.Induced(vs).M()), int64(len(vs))); d.Greater(best) {
			best = d
		}
	}
	return best
}

// TestAnchoredEDSDecision: with anchors pinned, the cut side always holds
// them, and the exact tie moves from "empty" to "not strictly denser": at
// α = ρ*_Q the side is no denser than ρ*_Q, at the next-lower rational it
// is a densest superset of Q, and below that it is strictly denser than α.
func TestAnchoredEDSDecision(t *testing.T) {
	o := motif.Clique{H: 2}
	f := func(seed int64) bool {
		g := gen.GNM(10, 18, seed)
		for _, q := range [][]int32{{0}, {1, 7}, {2, 5, 9}} {
			build := func(num, den int64) (*Net, error) { return NewEDSSide(nil, g, q).Build(num, den) }
			opt := anchoredBrute(g, q)
			holdsQ := func(vs []int32) bool {
				in := map[int32]bool{}
				for _, v := range vs {
					in[v] = true
				}
				for _, v := range q {
					if !in[v] {
						return false
					}
				}
				return true
			}
			for _, c := range []struct {
				alpha rational.R
				ok    func(d rational.R) bool
			}{
				{opt, func(d rational.R) bool { return d.Cmp(opt) == 0 }},
				{nextBelow(opt, g.N()), func(d rational.R) bool { return d.Cmp(opt) == 0 }},
				{rational.New(opt.Num, 3*opt.Den), func(d rational.R) bool { return d.Greater(rational.New(opt.Num, 3*opt.Den)) }},
			} {
				vs, d := cut(t, g, o, build, c.alpha)
				if !holdsQ(vs) || !c.ok(d) {
					t.Logf("seed %d q=%v α=%v (ρ*_Q %v): side %v density %v", seed, q, c.alpha, opt, vs, d)
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

// TestCapacityOverflowRefused: a probe whose scaled capacities cannot be
// summed in int64 is refused with an error instead of wrapping, and so is
// an invalid probe.
func TestCapacityOverflowRefused(t *testing.T) {
	g := gen.GNM(10, 24, 1)
	cs := NewCliqueSide(g, 3)
	ps := NewPatternSide(g, motif.Diamond{}, false)
	const huge = math.MaxInt64 / 3
	for name, build := range map[string]builder{
		"EDS":      func(num, den int64) (*Net, error) { return NewEDSSide(nil, g, nil).Build(num, den) },
		"anchored": func(num, den int64) (*Net, error) { return NewEDSSide(nil, g, []int32{0}).Build(num, den) },
		"CDS":      func(num, den int64) (*Net, error) { return NewCDSSide(nil, g.N(), cs).Build(num, den) },
		"PDS":      func(num, den int64) (*Net, error) { return NewPDSSide(nil, g.N(), ps).Build(num, den) },
	} {
		if _, err := build(1, huge); err == nil {
			t.Errorf("%s: α = 1/%d accepted", name, int64(huge))
		}
		if _, err := build(huge, 1); err == nil {
			t.Errorf("%s: α = %d accepted", name, int64(huge))
		}
		if _, err := build(1, 0); err == nil {
			t.Errorf("%s: α = 1/0 accepted", name)
		}
		if _, err := build(3, 2); err != nil {
			t.Errorf("%s: α = 3/2 refused: %v", name, err)
		}
	}
}

// TestBuildReservesExactArcs checks that every builder reserves exactly
// the edges it adds: a build on a fresh arena never grows the edge
// arrays, and a rebuild into a larger arena keeps them.
func TestBuildReservesExactArcs(t *testing.T) {
	g := gen.GNM(14, 40, 5)
	cs3, cs4 := NewCliqueSide(g, 3), NewCliqueSide(g, 4)
	builds := map[string]func(f *flow.Network) (*Net, error){
		"EDS":          func(f *flow.Network) (*Net, error) { return NewEDSSide(f, g, nil).Build(3, 2) },
		"EDS/anchored": func(f *flow.Network) (*Net, error) { return NewEDSSide(f, g, []int32{0, 5}).Build(3, 2) },
		"CDS/h=3":      func(f *flow.Network) (*Net, error) { return NewCDSSide(f, g.N(), cs3).Build(3, 2) },
		"CDS/h=4":      func(f *flow.Network) (*Net, error) { return NewCDSSide(f, g.N(), cs4).Build(1, 2) },
		"PDS/grouped": func(f *flow.Network) (*Net, error) {
			return NewPDSSide(f, g.N(), NewPatternSide(g, motif.Diamond{}, true)).Build(3, 2)
		},
		"PDS/instances": func(f *flow.Network) (*Net, error) {
			return NewPDSSide(f, g.N(), NewPatternSide(g, motif.Star{X: 2}, false)).Build(3, 2)
		},
	}
	for name, build := range builds {
		net, err := build(nil)
		if err != nil {
			t.Fatal(err)
		}
		if net.NumEdges() == 0 || net.EdgeCap() != net.NumEdges() {
			t.Fatalf("%s: %d edges in room for %d", name, net.NumEdges(), net.EdgeCap())
		}
		big := flow.NewNetwork(1)
		big.Reserve(4 * net.NumEdges())
		room := big.EdgeCap()
		again, err := build(big)
		if err != nil {
			t.Fatal(err)
		}
		if again.EdgeCap() != room || again.NumEdges() != net.NumEdges() {
			t.Fatalf("%s: recycled arena room %d → %d for %d edges", name, room, again.EdgeCap(), again.NumEdges())
		}
	}
}

// oracleCliqueSide is the map-based construction NewCliqueSide replaced:
// it lists the (h−1)-cliques and the h-cliques with a clique.Lister and
// finds every facet of every h-clique in a map of the (h−1)-cliques. It
// returns the side in CliqueSide's layout, Λ in first-listed order.
func oracleCliqueSide(g *graph.Graph, h int) *CliqueSide {
	type key [8]int32
	makeKey := func(c []int32) key {
		k := key{-1, -1, -1, -1, -1, -1, -1, -1}
		copy(k[:], slices.Sorted(slices.Values(c)))
		return k
	}
	l := clique.NewLister(g)
	index := make(map[key]int32)
	var lambda [][]int32
	l.ForEach(h-1, func(c []int32) {
		k := makeKey(c)
		if _, ok := index[k]; !ok {
			index[k] = int32(len(lambda))
			lambda = append(lambda, slices.Sorted(slices.Values(c)))
		}
	})
	links := make([][]int32, len(lambda))
	deg := make([]int64, g.N())
	sub := make([]int32, h-1)
	l.ForEach(h, func(c []int32) {
		for _, v := range c {
			deg[v]++
		}
		for i := range c {
			sub = sub[:0]
			for j, u := range c {
				if j != i {
					sub = append(sub, u)
				}
			}
			j, ok := index[makeKey(sub)]
			if !ok {
				panic("oracle: missing (h-1)-clique")
			}
			links[j] = append(links[j], c[i])
		}
	})
	cs := &CliqueSide{H: h, Deg: deg, LinkOff: []int{0}}
	for j, psi := range lambda {
		cs.Members = append(cs.Members, psi...)
		cs.Links = append(cs.Links, links[j]...)
		cs.LinkOff = append(cs.LinkOff, len(cs.Links))
	}
	return cs
}

// sideLinks maps each (h−1)-clique of cs, by its sorted members, to its
// sorted links: equal maps mean the same Λ and the same multiset of
// (vertex, facet) links.
func sideLinks(cs *CliqueSide) map[string][]int32 {
	k := cs.H - 1
	m := make(map[string][]int32, cs.NumLambda())
	for j := range cs.NumLambda() {
		psi := fmt.Sprint(cs.Members[j*k : (j+1)*k])
		m[psi] = slices.Sorted(slices.Values(cs.Links[cs.LinkOff[j]:cs.LinkOff[j+1]]))
	}
	return m
}

// nearClique is a 48-vertex graph holding each of the 1,128 possible
// edges with probability 0.93, the shape of the densest component of a
// 4-clique solve on the DBLP stand-in (1,048 edges).
func nearClique(seed int64) *graph.Graph { return gen.ER(48, 0.93, seed) }

// TestCliqueSideMatchesOracle checks NewCliqueSide against the map-based
// construction: the same (h−1)-cliques, each with its members in
// increasing id and Λ in lexicographic order, the same links, the same
// Ψ-degrees, and the same minimal min-cut source side at several probes.
// The 48-vertex near-clique runs at h ∈ {3, 4}; at h = 5, where it holds
// about 800k 5-cliques, a sparser 48-vertex graph stands in.
func TestCliqueSideMatchesOracle(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		hs   []int
	}
	cases := []tc{
		{"near-clique", nearClique(1), []int{3, 4}},
		{"ER(48, 0.6)", gen.ER(48, 0.6, 2), []int{5}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, tc{fmt.Sprintf("gnm/seed%d", seed), gen.GNM(16, 60, seed), []int{3, 4, 5}})
	}
	for _, c := range cases {
		for _, h := range c.hs {
			got, want := NewCliqueSide(c.g, h), oracleCliqueSide(c.g, h)
			k := h - 1
			for j := range got.NumLambda() {
				psi := got.Members[j*k : (j+1)*k]
				if !slices.IsSorted(psi) || j > 0 && slices.Compare(got.Members[(j-1)*k:j*k], psi) >= 0 {
					t.Fatalf("%s h=%d: (h-1)-clique %d %v out of order", c.name, h, j, psi)
				}
			}
			if got.NumLambda() != want.NumLambda() || !maps.EqualFunc(sideLinks(got), sideLinks(want), slices.Equal) {
				t.Fatalf("%s h=%d: %d (h-1)-cliques and links differ from the oracle's %d", c.name, h, got.NumLambda(), want.NumLambda())
			}
			if !slices.Equal(got.Deg, want.Deg) {
				t.Fatalf("%s h=%d: Deg %v, oracle %v", c.name, h, got.Deg, want.Deg)
			}
			var sum int64
			for _, d := range got.Deg {
				sum += d
			}
			if sum == 0 {
				continue
			}
			// Probe around ρ(G) = (Σ deg / h) / n, where the cuts are
			// nontrivial.
			rho := rational.New(sum, int64(h*c.g.N()))
			for _, a := range []rational.R{
				rational.New(rho.Num, 2*rho.Den), rho, rational.New(3*rho.Num, 2*rho.Den),
				rational.New(2*rho.Num, rho.Den), rational.New(4*rho.Num, rho.Den),
			} {
				gn, err := NewCDSSide(nil, c.g.N(), got).Build(a.Num, a.Den)
				if err != nil {
					t.Fatal(err)
				}
				wn, err := NewCDSSide(nil, c.g.N(), want).Build(a.Num, a.Den)
				if err != nil {
					t.Fatal(err)
				}
				if gv, wv := gn.SolveVertices(), wn.SolveVertices(); !slices.Equal(gv, wv) {
					t.Fatalf("%s h=%d α=%v: source side %v, oracle %v", c.name, h, a, gv, wv)
				}
			}
		}
	}
}

// BenchmarkCliqueSide times NewCliqueSide on a 48-vertex near-clique at
// h = 4.
func BenchmarkCliqueSide(b *testing.B) {
	g := nearClique(1)
	b.ReportAllocs()
	for b.Loop() {
		NewCliqueSide(g, 4)
	}
}

// BenchmarkCDSProbe times one probe of a 4-clique search on a 48-vertex
// near-clique at α = ρ(G): building the network into a recycled arena
// and solving it to its minimal min cut.
func BenchmarkCDSProbe(b *testing.B) {
	g := nearClique(1)
	cs := NewCliqueSide(g, 4)
	var sum int64
	for _, d := range cs.Deg {
		sum += d
	}
	var f *flow.Network
	b.ReportAllocs()
	for b.Loop() {
		net, err := NewCDSSide(f, g.N(), cs).Build(sum, int64(4*g.N()))
		if err != nil {
			b.Fatal(err)
		}
		net.SolveVertices()
		f = net.Network
	}
}
