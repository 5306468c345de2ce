package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/psicore"
	"repro/internal/rational"
)

func TestBatchPeelGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(11, 26, seed)
		for _, o := range []motif.Oracle{motif.Clique{H: 2}, motif.Clique{H: 3}, motif.Diamond{}} {
			opt := bruteDensest(g, o)
			if opt.IsZero() {
				continue
			}
			for _, eps := range []float64{0.1, 0.5, 1.0} {
				res, err := BatchPeel(g, o, eps, 0, nil)
				if err != nil {
					t.Logf("%v", err)
					return false
				}
				// ρ(S) ≥ ρopt / ((1+ε)|VΨ|).
				bound := opt.Float() / ((1 + eps) * float64(o.Size()))
				if res.Density.Float() < bound-1e-9 {
					t.Logf("seed %d %s eps=%f: %f below bound %f",
						seed, o.Name(), eps, res.Density.Float(), bound)
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

func TestBatchPeelFewPasses(t *testing.T) {
	// On a larger graph, batch peeling must still return a decent answer
	// and agree with PeelApp's guarantee regime.
	g := gen.ChungLu(5000, 25000, 2.5, 3)
	o := motif.Clique{H: 2}
	res, err := BatchPeel(g, o, 0.25, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	peel := PeelApp(g, o, nil)
	// Batch peel loses at most (1+ε) against sequential peel's bound; in
	// practice they land close. Accept within 2x.
	if res.Density.Float() < peel.Density.Float()/2 {
		t.Fatalf("batch %v too far below peel %v", res.Density, peel.Density)
	}
}

func TestBatchPeelErrors(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}})
	if _, err := BatchPeel(g, motif.Clique{H: 2}, 0, 0, nil); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := BatchPeel(g, motif.Clique{H: 2}, -1, 0, nil); err == nil {
		t.Fatal("eps<0 accepted")
	}
	// No instances: density zero, empty-ish result, no panic.
	res, err := BatchPeel(g, motif.Clique{H: 3}, 0.5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Density.IsZero() {
		t.Fatalf("triangle density on a single edge: %v", res.Density)
	}
}

func TestPeelAppAtLeastRespectsBound(t *testing.T) {
	// A K4 attached to a long path: unconstrained peeling returns the K4
	// (density 1.5); with k=8 the answer must keep ≥ 8 vertices and its
	// density drops accordingly.
	b := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i := 3; i < 11; i++ {
		b = append(b, [2]int{i, i + 1})
	}
	g := graph.FromEdges(12, b)
	o := motif.Clique{H: 2}

	un := PeelApp(g, o, nil)
	if len(un.Vertices) != 4 {
		t.Fatalf("unconstrained peel |V|=%d, want 4", len(un.Vertices))
	}
	res, err := PeelAppAtLeast(g, o, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) < 8 {
		t.Fatalf("|V|=%d violates k=8", len(res.Vertices))
	}
	if !res.Density.Less(un.Density) {
		t.Fatalf("constrained density %v not below unconstrained %v", res.Density, un.Density)
	}
}

func TestPeelAppAtLeastMatchesBruteForceShape(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(10, 22, seed)
		o := motif.Clique{H: 2}
		for _, k := range []int{1, 4, 8, 10} {
			res, err := PeelAppAtLeast(g, o, k, nil)
			if err != nil {
				return false
			}
			if len(res.Vertices) < k {
				t.Logf("seed %d k=%d: |V|=%d", seed, k, len(res.Vertices))
				return false
			}
			// Density of the returned set matches a recount.
			d, _ := densityOf(g, o, res.Vertices)
			if d.Cmp(res.Density) != 0 {
				t.Logf("seed %d k=%d: recount mismatch", seed, k)
				return false
			}
			// With k=1 this is PeelApp itself, which must satisfy the
			// 1/2-approximation guarantee.
			if k == 1 {
				peel := PeelApp(g, o, nil)
				if !slices.Equal(res.Vertices, peel.Vertices) || res.Mu != peel.Mu || res.Density != peel.Density {
					t.Logf("seed %d: k=1 answer %v differs from PeelApp's %v", seed, res.Vertices, peel.Vertices)
					return false
				}
				opt := bruteDensest(g, o)
				lhs := rational.New(res.Density.Num*2, res.Density.Den)
				if lhs.Less(opt) {
					t.Logf("seed %d: k=1 %v below ρopt/2 of %v", seed, res.Density, opt)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPeelAppAtLeastRanksPeelResiduals holds the replay to a recount:
// for every k, the answer is the densest residual Order[i:] of the
// decomposition's peel with at least k vertices, earliest i on ties, on
// graphs whose peels start with instance-free vertices.
func TestPeelAppAtLeastRanksPeelResiduals(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := gen.GNM(11, 14+int(seed), seed)
		for _, o := range []motif.Oracle{motif.Clique{H: 2}, motif.Clique{H: 3}, motif.Diamond{}} {
			dec := psicore.Decompose(g, o)
			n := g.N()
			for k := 1; k <= n; k++ {
				from, best := 0, rational.Zero
				for i := 0; i+k <= n; i++ {
					if d, _ := densityOf(g, o, dec.Order[i:]); i == 0 || d.Greater(best) {
						from, best = i, d
					}
				}
				res, err := PeelAppAtLeast(g, o, k, dec)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]int32(nil), dec.Order[from:]...)
				sortVertices(want)
				if res.Density != best || res.Mu != best.Num || !slices.Equal(res.Vertices, want) {
					t.Fatalf("seed %d %s k=%d: µ=%d %v %v, want residual %d: %v %v",
						seed, o.Name(), k, res.Mu, res.Density, res.Vertices, from, best, want)
				}
			}
		}
	}
}

func TestPeelAppAtLeastErrors(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}})
	if _, err := PeelAppAtLeast(g, motif.Clique{H: 2}, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PeelAppAtLeast(g, motif.Clique{H: 2}, 99, nil); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := PeelAppAtLeast(g, motif.Clique{H: 2}, 1, &psicore.Decomposition{Floor: 1}); err == nil {
		t.Fatal("restricted decomposition accepted")
	}
}
