package dsd_test

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	dsd "repro"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// fuzzMotifs are the motifs FuzzSolve draws from: Ψ = edge, triangle and
// 4-clique, then the seven Figure-7 patterns.
var fuzzMotifs = func() []dsd.Query {
	qs := []dsd.Query{{H: 2}, {H: 3}, {H: 4}}
	for _, p := range dsd.Figure7Patterns() {
		qs = append(qs, dsd.Query{Pattern: p})
	}
	return qs
}()

// fuzzEdges decodes an edge bitmask over the n(n−1)/2 vertex pairs of an
// n-vertex graph (n ≤ 11, so every pair has a bit).
func fuzzEdges(n int, mask uint64) [][2]int {
	var edges [][2]int
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask>>bit&1 == 1 {
				edges = append(edges, [2]int{u, v})
			}
			bit++
		}
	}
	return edges
}

// fuzzGaps are the Gap budgets of FuzzSolve's degraded-interval arm.
var fuzzGaps = []float64{0.01, 0.1, 0.5, 1, 4}

// FuzzSolve is the differential check on every exact path. On a graph of
// at most 10 vertices, with Ψ an h-clique (h ∈ {2,3,4}) or a Figure-7
// pattern, the core-exact density must equal brute force, and must be
// the same exact rational on every other exact path: core-exact at 1 and
// 3 workers, exact, the final answer of a stream at the fuzzed worker
// count, and — after each of a sequence of two to eight edge batches
// derived from flip — one warm Solver mutated in place, version after
// version, against a fresh Solver on the mutated graph and brute force.
// Paths may return different optimal witnesses, so densities compare by
// value (6 = 42/7 = 60/10; see
// testdata/fuzz/FuzzSolve/equal-density-witnesses), not by numerator and
// denominator.
//
// The degraded-interval arm runs core-exact with a Gap budget (no
// Deadline, so the check is clock-free): an exact answer must be the
// brute-force density, and a degraded one must certify an interval
// [Bound.Lower, Bound.Upper] that contains it, with the witness
// realizing the lower end and the upper end within (1+Gap) of it.
func FuzzSolve(f *testing.F) {
	f.Add(uint8(5), uint64(0b111111), uint8(1), uint8(1), uint64(0)) // bowtie-ish, triangle
	f.Add(uint8(10), uint64(0x1f3a_5c7e_9b2d_4f61), uint8(0), uint8(3), uint64(0x00ff_00ff))
	f.Add(uint8(8), uint64(0x0fff_ffff), uint8(2), uint8(2), uint64(0x1111_1111)) // dense, 4-clique
	f.Add(uint8(9), uint64(0xdead_beef_cafe), uint8(6), uint8(4), uint64(0xf0f0)) // diamond
	f.Add(uint8(7), uint64(0x1_ffff), uint8(9), uint8(1), uint64(0x3_0000))       // basket
	f.Add(uint8(10), uint64(0), uint8(4), uint8(2), uint64(0x1f_ffff_ffff))       // empty, then inserts
	f.Add(uint8(6), uint64(0x7fff), uint8(3), uint8(3), uint64(0x7fff))           // K6, then delete all
	f.Fuzz(func(t *testing.T, n uint8, mask uint64, motif uint8, workers uint8, flip uint64) {
		nv := 1 + int(n)%10
		w := 1 + int(workers)%4
		base := fuzzMotifs[int(motif)%len(fuzzMotifs)]
		ctx := context.Background()

		g := dsd.FromEdges(nv, fuzzEdges(nv, mask))
		brute := bruteDensity(g, base)

		s := dsd.NewSolver(g)
		solve := func(s *dsd.Solver, algo dsd.Algo, workers int) dsd.Density {
			t.Helper()
			q := base
			q.Algo, q.Workers = algo, workers
			res, err := s.Solve(ctx, q)
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", q.Psi(), algo, workers, err)
			}
			return res.Density
		}
		want := solve(s, dsd.AlgoCoreExact, 1)
		if want.Cmp(brute) != 0 {
			t.Fatalf("%s: core-exact %v, brute force %v", base.Psi(), want, brute)
		}
		same := func(label string, got dsd.Density) {
			t.Helper()
			if got.Cmp(want) != 0 {
				t.Fatalf("%s: %s density %v, core-exact %v", base.Psi(), label, got, want)
			}
		}
		same("core-exact workers=3", solve(dsd.NewSolver(g), dsd.AlgoCoreExact, 3))
		same("exact", solve(dsd.NewSolver(g), dsd.AlgoExact, 1))

		q := base
		q.Workers = w
		var final dsd.Answer
		if _, err := dsd.NewSolver(g).StreamFunc(ctx, q, func(a dsd.Answer) { final = a }); err != nil {
			t.Fatalf("stream: %v", err)
		}
		if !final.Final {
			t.Fatalf("stream ended on a non-final answer %+v", final)
		}
		same("stream final", final.Density)

		gap := fuzzGaps[int(motif)/len(fuzzMotifs)%len(fuzzGaps)]
		checkGapInterval(t, g, base, w, gap, brute)

		// The edge batches on the warm Solver: batch i holds the pairs set
		// in flip rotated by 17·i bits, and workers picks how many batches
		// run (two to eight). A batch deletes its present pairs and inserts
		// its absent ones. After each, the mutated Solver must agree with a
		// fresh Solver and with brute force.
		cur := mask
		for i := 0; i < 2+int(workers)/4%7; i++ {
			batch := bits.RotateLeft64(flip, 17*i)
			before := dsd.FromEdges(nv, fuzzEdges(nv, cur))
			var m dsd.Mutation
			for _, e := range fuzzEdges(nv, batch) {
				if before.HasEdge(e[0], e[1]) {
					m.Delete = append(m.Delete, e)
				} else {
					m.Insert = append(m.Insert, e)
				}
			}
			if _, err := s.Mutate(ctx, m); err != nil {
				t.Fatalf("mutate batch %d: %v", i+1, err)
			}
			cur ^= batch
			mutated := dsd.FromEdges(nv, fuzzEdges(nv, cur))
			want = solve(dsd.NewSolver(mutated), dsd.AlgoCoreExact, w)
			if brute := bruteDensity(mutated, base); want.Cmp(brute) != 0 {
				t.Fatalf("%s: core-exact after batch %d %v, brute force %v", base.Psi(), i+1, want, brute)
			}
			same(fmt.Sprintf("mutated solver after batch %d", i+1), solve(s, dsd.AlgoCoreExact, w))
		}
	})
}

// checkGapInterval runs q's core-exact solve on g under a Gap budget and
// checks its answer against the brute-force optimum brute.
func checkGapInterval(t *testing.T, g *dsd.Graph, q dsd.Query, workers int, gap float64, brute dsd.Density) {
	t.Helper()
	q.Algo, q.Workers, q.Gap = dsd.AlgoCoreExact, workers, gap
	res, err := dsd.NewSolver(g).Solve(context.Background(), q)
	if err != nil {
		t.Fatalf("%s gap=%g: %v", q.Psi(), gap, err)
	}
	ev, err := dsd.NewSolver(g).EvaluateWitness(q, res.Vertices)
	if err != nil {
		t.Fatalf("%s gap=%g: evaluate witness: %v", q.Psi(), gap, err)
	}
	if ev.Density.Cmp(res.Density) != 0 {
		t.Fatalf("%s gap=%g: witness recount %v, returned density %v", q.Psi(), gap, ev.Density, res.Density)
	}
	if !res.Degraded {
		if res.Density.Cmp(brute) != 0 || res.Bound != (dsd.Bound{}) {
			t.Fatalf("%s gap=%g: exact answer %v with bound %+v, brute force %v", q.Psi(), gap, res.Density, res.Bound, brute)
		}
		return
	}
	lo, up := res.Bound.Lower, res.Bound.Upper
	if lo.Cmp(res.Density) != 0 {
		t.Fatalf("%s gap=%g: bound lower %v is not the returned density %v", q.Psi(), gap, lo, res.Density)
	}
	if lo.Cmp(brute) > 0 || brute.CmpFloat(up) > 0 {
		t.Fatalf("%s gap=%g: interval [%v, %v] misses brute force %v", q.Psi(), gap, lo, up, brute)
	}
	if lo.CmpFloat(up) >= 0 {
		t.Fatalf("%s gap=%g: degraded but lower %v ≥ upper %v", q.Psi(), gap, lo, up)
	}
	if up > lo.Float()*(1+gap)*(1+1e-12) {
		t.Fatalf("%s gap=%g: upper %v beyond (1+gap)·lower %v", q.Psi(), gap, up, lo.Float()*(1+gap))
	}
}

// bruteDensity is the densest-subgraph density of g for q's motif by
// exhaustive subset enumeration.
func bruteDensity(g *dsd.Graph, q dsd.Query) dsd.Density {
	count := func(sub *graph.Graph) int64 {
		if q.Pattern != nil {
			return dsd.CountPatterns(sub, q.Pattern)
		}
		return dsd.CountCliques(sub, q.H)
	}
	d, _ := testutil.BruteForceDensest(g, count)
	return d
}
