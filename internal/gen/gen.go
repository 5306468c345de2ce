// Package gen provides seeded synthetic graph generators: the three
// GTgraph families the paper evaluates (ER, R-MAT, SSCA), a Chung–Lu
// power-law generator used to build stand-ins for the paper's real
// datasets, and two structured generators for the case studies
// (collaboration networks and planted-module PPI networks). All generators
// are deterministic in their seed.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ER samples an Erdős–Rényi G(n,p) graph. The paper's ER dataset uses
// p = 0.0005 at n = 100000.
func ER(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if p <= 0 {
		return b.Build()
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	// Geometric skipping: sample the gap to the next present edge, so the
	// cost is proportional to the number of edges, not n². The sampled
	// indices only increase, so the row (u, and the index of its first
	// pair) carries over from one edge to the next.
	logq := math.Log(1 - p)
	var i int64
	total := int64(n) * int64(n-1) / 2
	u, rowStart, rowLen := 0, int64(0), int64(n-1)
	for {
		gap := int64(math.Log(1-rng.Float64())/logq) + 1
		i += gap
		if i > total {
			break
		}
		// Pair i-1 in lexicographic (u, v) order, u < v.
		for i-1 >= rowStart+rowLen {
			rowStart += rowLen
			u++
			rowLen--
		}
		b.AddEdge(u, u+1+int(i-1-rowStart))
	}
	return b.Build()
}

// GNM samples a uniform graph with n vertices and (approximately, after
// dedup) m edges.
func GNM(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RMAT samples a recursive-matrix power-law graph with the standard
// partition probabilities (a,b,c,d). The paper's R-MAT dataset uses the
// GTgraph defaults a=0.45, b=0.15, c=0.15, d=0.25 at n=100000.
func RMAT(n, m int, a, b, c, d float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	scale := 0
	for (1 << scale) < n {
		scale++
	}
	bld := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for s := 0; s < scale; s++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: nothing to add
			case r < a+b:
				v |= 1 << s
			case r < a+b+c:
				u |= 1 << s
			default:
				u |= 1 << s
				v |= 1 << s
			}
		}
		if u < n && v < n {
			bld.AddEdge(u, v)
		}
	}
	return bld.Build()
}

// RMATDefault runs RMAT with the GTgraph default partition.
func RMATDefault(n, m int, seed int64) *graph.Graph {
	return RMAT(n, m, 0.45, 0.15, 0.15, 0.25, seed)
}

// SSCA generates an SSCA#2-style graph: a union of random-sized cliques
// over a vertex universe, which yields very dense local structure (the
// GTgraph SSCA generator). maxClique is the maximum clique size.
func SSCA(n, maxClique int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	assigned := 0
	for assigned < n {
		size := 1 + rng.Intn(maxClique)
		if assigned+size > n {
			size = n - assigned
		}
		for i := assigned; i < assigned+size; i++ {
			for j := i + 1; j < assigned+size; j++ {
				b.AddEdge(i, j)
			}
		}
		assigned += size
	}
	// Inter-clique links: a sparse random matching so the graph is not a
	// disjoint clique union (mirrors GTgraph's inter-clique edges).
	links := n / 4
	for i := 0; i < links; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// ChungLu samples a power-law graph with expected degree sequence
// w_i ∝ (i+1)^(−1/(α−1)) scaled so the expected edge count is m. It is the
// stand-in family for the paper's real datasets (Table 2 records each
// dataset's n, m and power-law α).
func ChungLu(n, m int, alpha float64, seed int64) *graph.Graph {
	b := graph.NewBuilderCap(n, m)
	ChungLuEdges(n, m, alpha, seed, b.AddEdge)
	return b.Build()
}

// ChungLuEdges emits ChungLu's m endpoint pairs in draw order, self-loops
// and repeats included, so a caller can add them to its own Builder and
// build once: ChungLu is ChungLuEdges into a fresh Builder.
func ChungLuEdges(n, m int, alpha float64, seed int64, emit func(u, v int)) {
	if n < 1 || m < 1 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	if alpha <= 1.5 {
		alpha = 1.5
	}
	// cum[i+1] first holds vertex i's raw weight (i+1)^exp, then the
	// cumulative sum of the normalized weights: Σw = 2m (the expected
	// degrees), each capped at sqrt(2m) to keep edge probabilities ≤ 1.
	cum := make([]float64, n+1)
	var sum float64
	exp := -1.0 / (alpha - 1)
	for i := 0; i < n; i++ {
		cum[i+1] = math.Pow(float64(i+1), exp)
		sum += cum[i+1]
	}
	scale := 2 * float64(m) / sum
	capw := math.Sqrt(2 * float64(m))
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + min(float64(cum[i+1]*scale), capw)
	}
	// Each endpoint is drawn proportional to w by inversion: x uniform in
	// [0, Σw), endpoint = the smallest i with cum[i+1] ≥ x, which a guide
	// table finds in a few probes instead of a search over all n entries.
	total := cum[n]
	t := newGuideTable(cum)
	draw := func() int { return t.find(rng.Float64() * total) }
	for i := 0; i < m; i++ {
		emit(draw(), draw())
	}
}

// guideTable inverts a cumulative weight table: find(x) is the smallest i
// with cum[i+1] ≥ x. It splits [0, cum[n]) into n equal buckets with
// thresholds t_j = j·step; guide[j] is the smallest i with cum[i+1] ≥ t_j
// (n−1 if there is none), and guide[n] = n−1. An x in bucket j, so
// t_j ≤ x < t_{j+1}, has its answer in [guide[j], guide[j+1]], and a
// binary search over that short range returns exactly what a search over
// the whole table would, ties in cum included. The thresholds are
// recomputed, not stored.
type guideTable struct {
	cum       []float64
	guide     []int32
	step, inv float64
}

// newGuideTable indexes cum, which must start at 0, be non-decreasing and
// end above 0.
func newGuideTable(cum []float64) *guideTable {
	n := len(cum) - 1
	t := &guideTable{cum: cum, guide: make([]int32, n+1), step: cum[n] / float64(n)}
	t.inv = 1 / t.step
	for j, i := 0, 0; j < n; j++ {
		th := float64(j) * t.step
		for i < n-1 && cum[i+1] < th {
			i++
		}
		t.guide[j] = int32(i)
	}
	t.guide[n] = int32(n - 1)
	return t
}

// find returns the smallest i with cum[i+1] ≥ x, for x in [0, cum[n]].
func (t *guideTable) find(x float64) int {
	n := len(t.guide) - 1
	// Estimate x's bucket, then correct it against the thresholds as
	// newGuideTable computed them, so rounding never picks a neighbour.
	j := min(max(int(x*t.inv), 0), n-1)
	for j > 0 && x < float64(j)*t.step {
		j--
	}
	for j < n-1 && x >= float64(j+1)*t.step {
		j++
	}
	lo, hi := int(t.guide[j]), int(t.guide[j+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cum[mid+1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MultiCommunity generates a deterministic multi-component stress
// instance for CoreExact's per-component flow search (triangle density,
// h = 3): k disjoint communities, where community i is
//
//   - a "kernel" clique K_cliqueSize,
//   - fringe extra vertices, each adjacent to fringeBase+i kernel
//     vertices — the fringe's triangle degree C(fringeBase+i, 2) exceeds
//     the bare clique's triangle density, so the community's densest
//     subgraph is kernel+fringe, strictly denser for larger i, and
//   - i·padPerRank padding cliques K_padSize, each bridged to the kernel
//     by one (triangle-free) edge.
//
// The construction defeats both of CoreExact's cheap bounds at once.
// Peeling removes every community's fringe before any kernel clique (the
// fringe's triangle degree is far below a clique member's), so no
// residual subgraph ever shows a community's true density and Pruning 1's
// l stays near the bare-clique density — below k communities' optima.
// The padding is dense enough to survive the located core (its triangle
// core number is C(padSize−1,2)) but sparser than any kernel, and
// stronger communities carry more of it, so the whole-component density
// order — the order Pruning 2 searches components in — is the reverse of
// the optimum order, and the serial engine must fully search community
// after community, each marginally raising l. The parallel engine
// searches them concurrently and shares every improvement, so most of
// those searches end early: same exact answer, fewer flow solves.
//
// Callers should keep fringeBase+k−1 < cliqueSize and
// C(fringeBase,2) > C(cliqueSize,3)/cliqueSize (fringe improves the
// kernel), and C(padSize−1,2) above the union's peak residual density
// (padding survives location); the defaults in the perf suite satisfy
// all three with a wide margin.
func MultiCommunity(k, cliqueSize, fringe, fringeBase, padSize, padPerRank int) *graph.Graph {
	n := 0
	for i := 0; i < k; i++ {
		n += cliqueSize + fringe + i*padPerRank*padSize
	}
	b := graph.NewBuilder(n)
	next := 0
	for i := 0; i < k; i++ {
		base := next
		for x := 0; x < cliqueSize; x++ {
			for y := x + 1; y < cliqueSize; y++ {
				b.AddEdge(base+x, base+y)
			}
		}
		next += cliqueSize
		t := fringeBase + i
		for f := 0; f < fringe; f++ {
			// Spread fringe anchors around the kernel so no kernel vertex
			// collects every fringe edge.
			for x := 0; x < t; x++ {
				b.AddEdge(next, base+(f+x)%cliqueSize)
			}
			next++
		}
		for c := 0; c < i*padPerRank; c++ {
			for x := 0; x < padSize; x++ {
				for y := x + 1; y < padSize; y++ {
					b.AddEdge(next+x, next+y)
				}
			}
			b.AddEdge(next, base) // triangle-free bridge into the kernel
			next += padSize
		}
	}
	return b.Build()
}

// Collaboration generates a DBLP-style co-authorship network: papers are
// cliques of 2..maxAuthors authors; author popularity is Zipf-skewed so a
// few "senior" authors join many papers. This reproduces the structure
// behind the paper's Figure 17 case study (triangle-PDS = tight group,
// 2-star-PDS = hubs with spokes).
func Collaboration(authors, papers, maxAuthors int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.4, 1.0, uint64(authors-1))
	b := graph.NewBuilder(authors)
	team := make([]int, 0, maxAuthors)
	for p := 0; p < papers; p++ {
		size := 2 + rng.Intn(maxAuthors-1)
		team = team[:0]
		for len(team) < size {
			a := int(zipf.Uint64())
			dup := false
			for _, t := range team {
				if t == a {
					dup = true
					break
				}
			}
			if !dup {
				team = append(team, a)
			}
		}
		for i := range team {
			for j := i + 1; j < len(team); j++ {
				b.AddEdge(team[i], team[j])
			}
		}
	}
	return b.Build()
}

// PlantedPPI generates a yeast-style protein interaction network: a sparse
// power-law background plus dense functional modules of different shapes —
// one near-clique module, one hub-spoke module, one cycle-rich module — so
// different patterns select different densest subgraphs (Figure 21).
// It returns the graph and the module vertex sets in that order.
func PlantedPPI(n, m int, seed int64) (*graph.Graph, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderCap(n, m)
	ChungLuEdges(n, m, 2.9, seed+1, b.AddEdge)
	var modules [][]int32
	next := 0
	pick := func(k int) []int32 {
		vs := make([]int32, k)
		for i := range vs {
			vs[i] = int32(next)
			next++
		}
		return vs
	}
	// Near-clique module (4-clique dense).
	cl := pick(9)
	for i := range cl {
		for j := i + 1; j < len(cl); j++ {
			if rng.Float64() < 0.9 {
				b.AddEdge(int(cl[i]), int(cl[j]))
			}
		}
	}
	modules = append(modules, cl)
	// Hub module: two hubs sharing many spokes (2-star / c3-star dense).
	hub := pick(14)
	for i := 2; i < len(hub); i++ {
		b.AddEdge(int(hub[0]), int(hub[i]))
		b.AddEdge(int(hub[1]), int(hub[i]))
	}
	b.AddEdge(int(hub[0]), int(hub[1]))
	modules = append(modules, hub)
	// Cycle-rich module: a dense bipartite block (diamond/4-cycle dense,
	// clique-free): K_{6,12} at 90% fill.
	cyc := pick(18)
	for i := 0; i < 6; i++ {
		for j := 6; j < len(cyc); j++ {
			if rng.Float64() < 0.9 {
				b.AddEdge(int(cyc[i]), int(cyc[j]))
			}
		}
	}
	modules = append(modules, cyc)
	return b.Build(), modules
}
