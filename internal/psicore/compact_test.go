package psicore

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bucketq"
	"repro/internal/clique"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
	"repro/internal/testutil"
)

// referencePeel is the single-phase peel: every vertex, instance-free or
// not, goes through one bucket queue over g, and every destroyed instance
// lowers each other member's key at once, one DecreaseTo per member. It
// counts and enumerates cliques on neighbour lists only (a Lister and
// clique.ForEachContaining). The production peel, which may emit the
// instance-free prefix directly, peel a compacted support, move each
// vertex once per step and walk bit rows, must match it in every field.
func referencePeel(g *graph.Graph, o motif.Oracle) *Decomposition {
	total, deg := o.CountAndDegrees(g)
	c, isClique := o.(motif.Clique)
	isClique = isClique && c.H >= 3
	if isClique {
		deg = clique.NewLister(g).Degrees(c.H)
		total = 0
		for _, dv := range deg {
			total += dv
		}
		total /= int64(c.H)
	}
	n := g.N()
	st := motif.NewState(g)
	q := bucketq.New(deg)
	d := &Decomposition{
		Core:           make([]int64, n),
		Order:          make([]int32, 0, n),
		TotalInstances: total,
		BestResidual:   rational.New(total, int64(n)),
		BestResidualMu: total,
	}
	mu, alive, cur := total, n, int64(0)
	dec := func(u int, delta int64) {
		deg[u] -= delta
		q.DecreaseTo(u, deg[u], cur)
	}
	for {
		v, k, ok := q.PopMin()
		if !ok {
			break
		}
		cur = max(cur, k)
		d.Core[v] = cur
		d.KMax = max(d.KMax, cur)
		d.Order = append(d.Order, int32(v))
		if isClique {
			clique.ForEachContaining(g, v, c.H, st.Alive, func(others []int32) {
				mu--
				for _, u := range others {
					dec(int(u), 1)
				}
			})
		} else {
			mu -= o.OnRemove(st, v, dec)
		}
		st.Remove(v)
		alive--
		if alive > 0 {
			if r := rational.New(mu, int64(alive)); r.Greater(d.BestResidual) {
				d.BestResidual, d.BestResidualMu, d.BestResidualStart = r, mu, len(d.Order)
			}
		}
	}
	return d
}

// trianglePlus returns a triangle on 0,1,2 with tails hanging off vertex
// 0: each tail is a path of length vertices, so length 1 gives pendant
// vertices and longer tails move the adjacency off the triangle.
func trianglePlus(tails, length int) *graph.Graph {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	next := 3
	for i := 0; i < tails; i++ {
		prev := 0
		for j := 0; j < length; j++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}

// k12Tails returns a K12 on 0..11 whose vertex i carries a path of
// i%3+1 further vertices. Removing the first clique vertex drops every
// other one below cur at once, so the step clamps eleven keys to cur
// and the tie order decides the rest of the peel.
func k12Tails() *graph.Graph {
	b := graph.NewBuilder(12)
	addClique(b, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	next := 12
	for i := 0; i < 12; i++ {
		prev := i
		for j := 0; j <= i%3; j++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}

// TestCompactedPeelMatchesFullPeel checks that compacting the Ψ-support,
// moving each vertex once per step and walking bit rows change nothing a
// peel decides: for every test oracle, Decompose, DecomposeWorkers(·, 2)
// and DecomposeSeeded must equal the single-phase reference peel in every
// field, on graphs where the compaction rule fires and where it does not,
// and on both sides of the bit-row rule. Each case states which triangle
// peels compact and which triangle counts walk bit rows, so every path
// stays covered.
func TestCompactedPeelMatchesFullPeel(t *testing.T) {
	k6 := graph.NewBuilder(6)
	addClique(k6, 0, 1, 2, 3, 4, 5)
	path := graph.NewBuilder(40)
	for v := 1; v < 40; v++ {
		path.AddEdge(v-1, v)
	}
	cases := []struct {
		name         string
		g            *graph.Graph
		triCompacted bool // whether the triangle peel compacts
		triRows      bool // whether the triangle count walks bit rows
	}{
		{"empty", graph.FromEdges(0, nil), false, false},
		{"isolated", graph.FromEdges(9, nil), false, false},
		{"path-mu-0", path.Build(), true, true},
		{"clique-all-support", k6.Build(), false, true},
		{"k12-tails", k12Tails(), false, true},
		{"triangle-pendants", trianglePlus(30, 1), false, true},
		{"triangle-tails", trianglePlus(10, 4), true, true},
		{"chunglu-sparse", testutil.Relabel(gen.ChungLu(1500, 3000, 2.5, 2), 2), true, false},
		{"chunglu-dense", testutil.Relabel(gen.ChungLu(800, 2400, 2.1, 4), 4), false, false},
		{"gnm", testutil.Relabel(gen.GNM(300, 1200, 11), 5), true, true},
		{"gnm-dense", testutil.Relabel(gen.GNM(60, 600, 6), 6), false, true},
		{"gnm-dense-130", testutil.Relabel(gen.GNM(130, 2000, 8), 8), false, true},
	}
	for _, tc := range cases {
		if _, deg := (motif.Clique{H: 3}).CountAndDegrees(tc.g); compactSupport(tc.g, deg) != tc.triCompacted {
			t.Errorf("%s: triangle peel compacts = %v, want %v", tc.name, !tc.triCompacted, tc.triCompacted)
		}
		if clique.RowsPay(tc.g) != tc.triRows {
			t.Errorf("%s: triangle count walks bit rows = %v, want %v", tc.name, !tc.triRows, tc.triRows)
		}
		for _, o := range testOracles {
			ref := referencePeel(tc.g, o)
			total, deg := o.CountAndDegrees(tc.g)
			seeded, err := DecomposeSeeded(context.Background(), tc.g, o, total, deg)
			if err != nil {
				t.Fatal(err)
			}
			for path, d := range map[string]*Decomposition{
				"Decompose":          Decompose(tc.g, o),
				"DecomposeWorkers/2": DecomposeWorkers(tc.g, o, 2),
				"DecomposeSeeded":    seeded,
			} {
				if !reflect.DeepEqual(d, ref) {
					t.Errorf("%s/%s: %s fingerprint %s (best residual %v at %d), reference %s (%v at %d)", tc.name, o.Name(), path,
						decompositionFingerprint(d), d.BestResidual, d.BestResidualStart,
						decompositionFingerprint(ref), ref.BestResidual, ref.BestResidualStart)
				}
			}
		}
	}
}

// TestDecomposeGoldenCompacted pins the peel of a shuffled-id power-law
// graph sparse enough that the triangle and 4-clique peels both compact
// their Ψ-support; the fingerprints were taken from the single-phase peel.
func TestDecomposeGoldenCompacted(t *testing.T) {
	g := testutil.Relabel(gen.ChungLu(4000, 8000, 2.5, 3), 3)
	for _, tc := range []struct {
		h    int
		want string
	}{
		{3, "44e2f9864bd9064c"},
		{4, "9521fac9f7dc4906"},
	} {
		o := motif.Clique{H: tc.h}
		if _, deg := o.CountAndDegrees(g); !compactSupport(g, deg) {
			t.Errorf("%s: the peel does not compact", o.Name())
		}
		if got := decompositionFingerprint(Decompose(g, o)); got != tc.want {
			t.Errorf("%s: fingerprint %s, golden %s", o.Name(), got, tc.want)
		}
	}
}

// FuzzPeelMatchesReference holds Decompose to the reference peel in every
// field, for a drawn test oracle on a drawn graph: a shuffled G(n, m)
// with up to 130 vertices and 1000 edges, so that sparse draws count and
// peel cliques on neighbour lists and dense ones on bit rows.
func FuzzPeelMatchesReference(f *testing.F) {
	f.Add(uint8(30), uint16(200), int64(1), uint8(2))  // dense: bit rows
	f.Add(uint8(120), uint16(100), int64(2), uint8(1)) // sparse: lists
	f.Add(uint8(129), uint16(700), int64(3), uint8(2)) // three row words
	f.Add(uint8(64), uint16(500), int64(4), uint8(4))
	f.Fuzz(func(t *testing.T, n uint8, m uint16, seed int64, osel uint8) {
		nv := 1 + int(n)%130
		me := int(m) % (min(nv*(nv-1)/2, 1000) + 1)
		g := testutil.Relabel(gen.GNM(nv, me, seed), seed)
		o := testOracles[int(osel)%len(testOracles)]
		if got, want := Decompose(g, o), referencePeel(g, o); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d %s (bit rows %v): peel fingerprint %s, reference %s", nv, me, o.Name(), clique.RowsPay(g),
				decompositionFingerprint(got), decompositionFingerprint(want))
		}
	})
}
