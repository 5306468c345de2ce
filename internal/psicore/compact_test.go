package psicore

import (
	"context"
	"testing"

	"repro/internal/bucketq"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
	"repro/internal/testutil"
)

// referencePeel is the single-phase peel: every vertex, instance-free or
// not, goes through one bucket queue over g. The production peel, which
// may emit the instance-free prefix directly and peel a compacted support,
// must match it in every field.
func referencePeel(g *graph.Graph, o motif.Oracle) *Decomposition {
	total, deg := o.CountAndDegrees(g)
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
		mu -= o.OnRemove(st, v, dec)
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

// TestCompactedPeelMatchesFullPeel checks that compacting the Ψ-support
// changes nothing a peel decides: for every test oracle, Decompose,
// DecomposeWorkers(·, 2) and DecomposeSeeded must fingerprint like the
// single-phase reference peel, on graphs where the compaction rule fires
// and where it does not. Each case states which triangle peels compact,
// so both phases stay covered.
func TestCompactedPeelMatchesFullPeel(t *testing.T) {
	clique := graph.NewBuilder(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			clique.AddEdge(u, v)
		}
	}
	path := graph.NewBuilder(40)
	for v := 1; v < 40; v++ {
		path.AddEdge(v-1, v)
	}
	cases := []struct {
		name         string
		g            *graph.Graph
		triCompacted bool // whether the triangle peel compacts
	}{
		{"empty", graph.FromEdges(0, nil), false},
		{"isolated", graph.FromEdges(9, nil), false},
		{"path-mu-0", path.Build(), true},
		{"clique-all-support", clique.Build(), false},
		{"triangle-pendants", trianglePlus(30, 1), false},
		{"triangle-tails", trianglePlus(10, 4), true},
		{"chunglu-sparse", testutil.Relabel(gen.ChungLu(1500, 3000, 2.5, 2), 2), true},
		{"chunglu-dense", testutil.Relabel(gen.ChungLu(800, 2400, 2.1, 4), 4), false},
		{"gnm", testutil.Relabel(gen.GNM(300, 1200, 11), 5), true},
		{"gnm-dense", testutil.Relabel(gen.GNM(60, 600, 6), 6), false},
	}
	for _, tc := range cases {
		if _, deg := (motif.Clique{H: 3}).CountAndDegrees(tc.g); compactSupport(tc.g, deg) != tc.triCompacted {
			t.Errorf("%s: triangle peel compacts = %v, want %v", tc.name, !tc.triCompacted, tc.triCompacted)
		}
		for _, o := range testOracles {
			ref := referencePeel(tc.g, o)
			want := decompositionFingerprint(ref)
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
				if got := decompositionFingerprint(d); got != want {
					t.Errorf("%s/%s: %s fingerprint %s, full peel %s", tc.name, o.Name(), path, got, want)
				}
				if d.BestResidual != ref.BestResidual {
					t.Errorf("%s/%s: %s best residual %v, full peel %v", tc.name, o.Name(), path, d.BestResidual, ref.BestResidual)
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
