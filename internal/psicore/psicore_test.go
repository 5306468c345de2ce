package psicore

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/rational"
	"repro/internal/testutil"
)

var testOracles = []motif.Oracle{
	motif.Clique{H: 2},
	motif.Clique{H: 3},
	motif.Clique{H: 4},
	motif.Star{X: 2},
	motif.Diamond{},
	motif.Generic{P: pattern.CStar()},
}

func degreesFn(o motif.Oracle) func(*graph.Graph) []int64 {
	return func(g *graph.Graph) []int64 {
		_, d := o.CountAndDegrees(g)
		return d
	}
}

// TestDecomposeMatchesDefinition cross-checks Algorithm 3 against the
// definitional fixpoint computation for several motifs.
func TestDecomposeMatchesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(13, 30, seed)
		for _, o := range testOracles {
			d := Decompose(g, o)
			want := testutil.BruteForceCoreNumbers(g, degreesFn(o))
			for v := range want {
				if d.Core[v] != want[v] {
					t.Logf("seed %d %s: core[%d]=%d want %d", seed, o.Name(), v, d.Core[v], want[v])
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

// TestFigure3TriangleCores checks the paper's Figure 3(b) example: with Ψ
// = triangle, {A,B,C,D} (a 4-clique) is the (3,Ψ)-core.
func TestFigure3TriangleCores(t *testing.T) {
	g := graph.FromEdges(8, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{3, 4}, {4, 5}, {2, 5},
		{6, 7},
	})
	d := Decompose(g, motif.Clique{H: 3})
	if d.KMax != 3 {
		t.Fatalf("kmax = %d, want 3", d.KMax)
	}
	core := d.KMaxCoreVertices()
	sort.Slice(core, func(i, j int) bool { return core[i] < core[j] })
	want := []int32{0, 1, 2, 3}
	if len(core) != 4 {
		t.Fatalf("(3,Ψ)-core = %v, want %v", core, want)
	}
	for i := range want {
		if core[i] != want[i] {
			t.Fatalf("(3,Ψ)-core = %v, want %v", core, want)
		}
	}
}

// TestTheorem1Bounds property-checks k/|VΨ| ≤ ρ(R_k,Ψ) ≤ kmax for every
// non-empty core.
func TestTheorem1Bounds(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(14, 34, seed)
		for _, o := range testOracles {
			d := Decompose(g, o)
			p := int64(o.Size())
			for k := int64(1); k <= d.KMax; k++ {
				vs := d.CoreVertices(k)
				if len(vs) == 0 {
					continue
				}
				sub := g.Induced(vs)
				mu, _ := o.CountAndDegrees(sub.Graph)
				rho := rational.New(mu, int64(len(vs)))
				if rho.Less(rational.New(k, p)) {
					t.Logf("seed %d %s: ρ(R_%d)=%v below k/|VΨ|", seed, o.Name(), k, rho)
					return false
				}
				if rho.Greater(rational.New(d.KMax, 1)) {
					t.Logf("seed %d %s: ρ(R_%d)=%v above kmax=%d", seed, o.Name(), k, rho, d.KMax)
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

// TestCoresNested verifies R_j ⊆ R_i for i < j.
func TestCoresNested(t *testing.T) {
	g := gen.GNM(30, 100, 17)
	d := Decompose(g, motif.Clique{H: 3})
	for k := int64(1); k <= d.KMax; k++ {
		inner := d.CoreVertices(k)
		outer := d.CoreVertices(k - 1)
		set := map[int32]bool{}
		for _, v := range outer {
			set[v] = true
		}
		for _, v := range inner {
			if !set[v] {
				t.Fatalf("core %d not nested in core %d", k, k-1)
			}
		}
	}
}

// TestBestResidualTracking: the tracked best residual density must match a
// direct recount of its vertex set, and no residual suffix may beat it.
func TestBestResidualTracking(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(12, 26, seed)
		for _, o := range testOracles {
			d := Decompose(g, o)
			vs := d.BestResidualVertices()
			if len(vs) == 0 {
				if !d.BestResidual.IsZero() {
					return false
				}
				continue
			}
			sub := g.Induced(vs)
			mu, _ := o.CountAndDegrees(sub.Graph)
			if d.BestResidual.Cmp(rational.New(mu, int64(len(vs)))) != 0 {
				t.Logf("seed %d %s: tracked %v, recount %d/%d", seed, o.Name(), d.BestResidual, mu, len(vs))
				return false
			}
			// Check all suffixes.
			for i := 0; i < len(d.Order); i++ {
				suffix := d.Order[i:]
				ssub := g.Induced(suffix)
				smu, _ := o.CountAndDegrees(ssub.Graph)
				if rational.New(smu, int64(len(suffix))).Greater(d.BestResidual) {
					t.Logf("seed %d %s: suffix %d denser than tracked best", seed, o.Name(), i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreAppMatchesIncApp: Algorithm 6 must return exactly the
// (kmax,Ψ)-core that full decomposition finds.
func TestCoreAppMatchesIncApp(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(40, 140, seed)
		for _, o := range testOracles {
			d := Decompose(g, o)
			ca := CoreApp(g, o, nil)
			if ca.KMax != d.KMax {
				t.Logf("seed %d %s: CoreApp kmax %d, want %d", seed, o.Name(), ca.KMax, d.KMax)
				return false
			}
			want := d.KMaxCoreVertices()
			got := append([]int32(nil), ca.Vertices...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Logf("seed %d %s: core size %d want %d", seed, o.Name(), len(got), len(want))
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestNucleusMatchesDecompose: the local fixpoint must converge to the
// peeling core numbers.
func TestNucleusMatchesDecompose(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(14, 34, seed)
		for _, o := range testOracles {
			want := Decompose(g, o)
			got := NucleusDecompose(g, o)
			if got.KMax != want.KMax {
				t.Logf("seed %d %s: nucleus kmax %d want %d", seed, o.Name(), got.KMax, want.KMax)
				return false
			}
			for v := range want.Core {
				if got.Core[v] != want.Core[v] {
					t.Logf("seed %d %s: nucleus core[%d]=%d want %d", seed, o.Name(), v, got.Core[v], want.Core[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEMcoreMatchesKCore: the EMcore adaptation must find the classical
// kmax-core.
func TestEMcoreMatchesKCore(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(50, 200, seed)
		want, wantK := kcore.KMaxCore(g)
		got, gotK := EMcore(g)
		if int32(gotK) != wantK {
			t.Logf("seed %d: EMcore kmax %d want %d", seed, gotK, wantK)
			return false
		}
		if len(got) != want.N() {
			t.Logf("seed %d: EMcore core size %d want %d", seed, len(got), want.N())
			return false
		}
		set := map[int32]bool{}
		for _, v := range want.Orig {
			set[v] = true
		}
		for _, v := range got {
			if !set[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeEmptyAndNoInstances(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	d := Decompose(empty, motif.Clique{H: 3})
	if d.KMax != 0 || d.TotalInstances != 0 {
		t.Fatalf("empty: %+v", d)
	}
	// A tree has no triangles: all triangle-core numbers are 0.
	tree := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	d = Decompose(tree, motif.Clique{H: 3})
	if d.KMax != 0 {
		t.Fatalf("tree triangle kmax = %d, want 0", d.KMax)
	}
	ca := CoreApp(tree, motif.Clique{H: 3}, nil)
	if ca.KMax != 0 {
		t.Fatalf("CoreApp on tree: kmax = %d", ca.KMax)
	}
}
