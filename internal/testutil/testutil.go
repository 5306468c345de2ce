// Package testutil holds brute-force reference implementations used by
// tests across the repository to validate the optimized algorithms. They
// are deliberately simple and slow: correctness oracles, not production
// code.
package testutil

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/graph"

	"repro/internal/rational"
)

// BruteForceCliqueCount counts h-cliques by testing every h-subset.
func BruteForceCliqueCount(g *graph.Graph, h int) int64 {
	var count int64
	n := g.N()
	subset := make([]int, h)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == h {
			count++
			return
		}
		for v := start; v < n; v++ {
			ok := true
			for i := 0; i < depth; i++ {
				if !g.HasEdge(subset[i], v) {
					ok = false
					break
				}
			}
			if ok {
				subset[depth] = v
				rec(v+1, depth+1)
			}
		}
	}
	rec(0, 0)
	return count
}

// BruteForceCliqueDegrees counts, for every vertex, the h-cliques that
// contain it, by full subset enumeration.
func BruteForceCliqueDegrees(g *graph.Graph, h int) []int64 {
	deg := make([]int64, g.N())
	n := g.N()
	subset := make([]int, h)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == h {
			for _, v := range subset {
				deg[v]++
			}
			return
		}
		for v := start; v < n; v++ {
			ok := true
			for i := 0; i < depth; i++ {
				if !g.HasEdge(subset[i], v) {
					ok = false
					break
				}
			}
			if ok {
				subset[depth] = v
				rec(v+1, depth+1)
			}
		}
	}
	rec(0, 0)
	return deg
}

// BruteForcePatternInstances enumerates the distinct edge-set instances of
// a pattern (k vertices, the given edge list) in g by trying every
// injection into every vertex subset, deduplicating by edge set
// (Definition 8 verbatim). It returns the distinct instance count and
// per-vertex degrees.
func BruteForcePatternInstances(g *graph.Graph, k int, pedges [][2]int) (int64, []int64) {
	n := g.N()
	deg := make([]int64, n)
	seen := make(map[string]bool)
	phi := make([]int, k)
	used := make([]bool, n)
	var count int64
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			// Build canonical edge-set key.
			var edges [][2]int
			for _, e := range pedges {
				u, v := phi[e[0]], phi[e[1]]
				if u > v {
					u, v = v, u
				}
				edges = append(edges, [2]int{u, v})
			}
			sort.Slice(edges, func(a, b int) bool {
				if edges[a][0] != edges[b][0] {
					return edges[a][0] < edges[b][0]
				}
				return edges[a][1] < edges[b][1]
			})
			key := ""
			for _, e := range edges {
				key += fmt.Sprintf("%d,%d;", e[0], e[1])
			}
			if seen[key] {
				return
			}
			seen[key] = true
			count++
			for _, v := range phi {
				deg[v]++
			}
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			ok := true
			for _, e := range pedges {
				a, b := e[0], e[1]
				if a == i && b < i && !g.HasEdge(v, phi[b]) {
					ok = false
					break
				}
				if b == i && a < i && !g.HasEdge(v, phi[a]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			phi[i] = v
			used[v] = true
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return count, deg
}

// BruteForceDensest finds the exact densest subgraph by enumerating every
// non-empty vertex subset, using count to measure µ of each induced
// subgraph. Usable for n ≤ ~16.
func BruteForceDensest(g *graph.Graph, count func(sub *graph.Graph) int64) (rational.R, []int32) {
	return BruteForceDensestAtLeast(g, 1, count)
}

// BruteForceDensestAtLeast is BruteForceDensest over the subsets of at
// least k vertices: the exact densest at-least-k subgraph.
func BruteForceDensestAtLeast(g *graph.Graph, k int, count func(sub *graph.Graph) int64) (rational.R, []int32) {
	n := g.N()
	best := rational.Zero
	var bestSet []int32
	var vs []int32
	for mask := 1; mask < (1 << n); mask++ {
		if bits.OnesCount(uint(mask)) < k {
			continue
		}
		vs = vs[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				vs = append(vs, int32(v))
			}
		}
		sub := g.Induced(vs)
		d := rational.New(count(sub.Graph), int64(len(vs)))
		if d.Greater(best) {
			best = d
			bestSet = append([]int32(nil), vs...)
		}
	}
	return best, bestSet
}

// BruteForceCoreNumbers computes (k,Ψ)-core numbers from the definition:
// for k = 0,1,2,…, iteratively delete vertices with Ψ-degree < k; the
// survivors form the (k,Ψ)-core and every vertex's core number is the
// largest k whose core contains it. degrees measures per-vertex Ψ-degrees
// of an induced subgraph.
func BruteForceCoreNumbers(g *graph.Graph, degrees func(sub *graph.Graph) []int64) []int64 {
	n := g.N()
	core := make([]int64, n)
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	for k := int64(1); ; k++ {
		// Iterate to fixpoint: remove alive vertices with degree < k in
		// the alive-induced subgraph.
		cur := append([]bool(nil), alive...)
		for {
			var vs []int32
			for v := 0; v < n; v++ {
				if cur[v] {
					vs = append(vs, int32(v))
				}
			}
			if len(vs) == 0 {
				return core
			}
			sub := g.Induced(vs)
			deg := degrees(sub.Graph)
			removed := false
			for lv, d := range deg {
				if d < k {
					cur[sub.Orig[lv]] = false
					removed = true
				}
			}
			if !removed {
				break
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if cur[v] {
				core[v] = k
				any = true
			}
		}
		alive = cur
		if !any {
			return core
		}
	}
}

// Fingerprint hashes a sequence of integers (FNV-1a over their 64-bit
// little-endian encodings). Golden tests pin a long result, such as a
// peel order, to one hex string with it.
func Fingerprint(xs ...int64) string {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			h ^= uint64(x>>(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// Relabel returns g with its vertices renamed by a permutation drawn from
// seed. Clique counts and densities are invariant under it; memory
// locality and the order ties are met in are not, so kernels are tested
// and timed on relabelled inputs, as real inputs number vertices
// arbitrarily.
func Relabel(g *graph.Graph, seed int64) *graph.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	b := graph.NewBuilder(g.N())
	g.Edges(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
	return b.Build()
}
