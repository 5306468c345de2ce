package graph

import (
	"math"
	"math/rand"
	"testing"
)

// powerLawBuilder returns a Builder holding m edges over n vertices whose
// endpoints follow a Chung–Lu power law of exponent alpha (vertex i drawn
// with weight ∝ (i+1)^(-1/(alpha-1)), by continuous inversion), relabelled
// by a random permutation so hubs are spread over the id range.
func powerLawBuilder(n, m int, alpha float64, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	inv := 1 / (1 - 1/(alpha-1))
	draw := func() int { return perm[int(float64(n)*math.Pow(rng.Float64(), inv))] }
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(draw(), draw())
	}
	return b
}

// BenchmarkBuild measures Builder.Build on an edge list the size and
// degree exponent of the paper's DBLP dataset (425,957 vertices,
// 1,049,866 edges, α = 2.35), duplicates and self-loops included.
func BenchmarkBuild(b *testing.B) {
	bld := powerLawBuilder(425957, 1049866, 2.3457, 1)
	b.ReportAllocs()
	for b.Loop() {
		bld.Build()
	}
}

// BenchmarkInduced measures Induced, which writes a CSR subgraph, on a
// 50k-vertex random graph for the two shapes core-exact builds: a few
// thousand unsorted vertices (one component search or density
// evaluation) and half the graph (the located core).
func BenchmarkInduced(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 50000
	bld := NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		bld.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := bld.Build()
	for _, c := range []struct {
		name string
		size int
	}{{"component", 2000}, {"core", n / 2}} {
		vs := make([]int32, c.size)
		for i, v := range rng.Perm(n)[:c.size] {
			vs[i] = int32(v)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g.Induced(vs)
			}
		})
	}
}
