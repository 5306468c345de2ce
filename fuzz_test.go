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

// FuzzSolve is the differential check on every exact path. On a graph of
// at most 10 vertices, with Ψ an h-clique (h ∈ {2,3,4}) or a Figure-7
// pattern, the core-exact density must equal brute force, and must be
// the same exact rational on every other exact path: core-exact at 1 and
// 3 workers, exact, the final answer of a stream at the fuzzed worker
// count, and — after each of two edge batches derived from flip — a
// Solver mutated in place against a fresh Solver on the mutated graph. Paths
// may return different optimal witnesses, so densities compare by value
// (6 = 42/7 = 60/10; see testdata/fuzz/FuzzSolve/equal-density-witnesses),
// not by numerator and denominator.
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

		// Two edge batches on the warm Solver: the pairs set in flip, then
		// those set in flip rotated by 17 bits. A batch deletes its present
		// pairs and inserts its absent ones. After each, the mutated Solver
		// must agree with a fresh Solver and with brute force.
		cur := mask
		for i, batch := range []uint64{flip, bits.RotateLeft64(flip, 17)} {
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
