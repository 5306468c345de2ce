package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
)

func TestCertifyAcceptsExactResults(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(11, 26, seed)
		for _, h := range []int{2, 3, 4} {
			o := motif.Clique{H: h}
			res := coreExact(t, g, motif.Clique{H: h}, DefaultOptions())
			if err := Certify(g, o, res, true); err != nil {
				t.Logf("seed %d h=%d: %v", seed, h, err)
				return false
			}
			// Approximations pass the consistency-only check.
			for _, ares := range []*Result{PeelApp(g, o, nil), CoreApp(g, o, nil)} {
				if err := Certify(g, o, ares, false); err != nil {
					t.Logf("seed %d h=%d approx: %v", seed, h, err)
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

func TestCertifyRejectsCorruption(t *testing.T) {
	g := gen.GNM(12, 30, 3)
	o := motif.Clique{H: 3}
	res := coreExact(t, g, motif.Clique{H: 3}, DefaultOptions())
	if res.Density.IsZero() {
		t.Skip("no triangles in this seed")
	}

	// Wrong µ.
	bad := *res
	bad.Mu++
	if err := Certify(g, o, &bad, true); err == nil {
		t.Fatal("corrupted µ accepted")
	}

	// Wrong density.
	bad = *res
	bad.Density = rational.New(bad.Density.Num+1, bad.Density.Den)
	if err := Certify(g, o, &bad, true); err == nil {
		t.Fatal("corrupted density accepted")
	}

	// Padded vertex set (adds a low-degree vertex): must fail at least the
	// consistency recount.
	bad = *res
	outside := int32(-1)
	inD := map[int32]bool{}
	for _, v := range res.Vertices {
		inD[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if !inD[int32(v)] {
			outside = int32(v)
			break
		}
	}
	if outside >= 0 {
		bad.Vertices = append(append([]int32(nil), res.Vertices...), outside)
		if err := Certify(g, o, &bad, true); err == nil {
			t.Fatal("padded vertex set accepted")
		}
	}

	// Empty result claiming positive density.
	bad = Result{Density: rational.New(1, 2)}
	if err := Certify(g, o, &bad, true); err == nil {
		t.Fatal("empty set with positive density accepted")
	}
}

func TestCertifyRejectsSuboptimalAsExact(t *testing.T) {
	// A graph where a greedy answer is strictly suboptimal: the bipartite
	// plant family from the datasets package. Build a small instance
	// directly: K_{3,30} (EDS, density ~2.7) + a 4-regular decoy.
	b := make([][2]int, 0, 128)
	for l := 0; l < 3; l++ {
		for r := 3; r < 33; r++ {
			b = append(b, [2]int{l, r})
		}
	}
	for i := 0; i < 40; i++ {
		b = append(b, [2]int{33 + i, 33 + (i+1)%40}, [2]int{33 + i, 33 + (i+2)%40})
	}
	g := graph.FromEdges(73, b)
	o := motif.Clique{H: 2}
	peel := PeelApp(g, o, nil)
	exact := coreExact(t, g, motif.Clique{H: 2}, DefaultOptions())
	if peel.Density.Cmp(exact.Density) == 0 {
		t.Skip("peel found the optimum on this instance")
	}
	// The suboptimal peel answer must fail the exact certificate...
	if err := Certify(g, o, peel, true); err == nil {
		// ...unless it happens to be locally maximal; in that case the
		// certificate is allowed to pass (it is necessary, not
		// sufficient). Verify at minimum that the exact answer certifies.
	}
	if err := Certify(g, o, exact, true); err != nil {
		t.Fatalf("exact result failed certification: %v", err)
	}
}
