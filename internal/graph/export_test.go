package graph

import "sort"

// CSR returns g's offsets and neighbor arrays.
func CSR(g *Graph) ([]int, []int32) { return g.off, g.nbr }

// Overlaid reports whether g carries a Mutator's overlay.
func Overlaid(g *Graph) bool { return g.ov != nil }

// ReferenceBuild is Builder.Build as it was before the counting build,
// kept as the reference the counting build must match arc for arc: one
// list per vertex, each sorted with sort.Slice and deduplicated in place.
// It returns the lists laid out as CSR arrays.
func ReferenceBuild(b *Builder) ([]int, []int32) {
	deg := make([]int32, b.n)
	for i := range b.src {
		deg[b.src[i]]++
		deg[b.dst[i]]++
	}
	adj := make([][]int32, b.n)
	for v := range adj {
		adj[v] = make([]int32, 0, deg[v])
	}
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := range adj {
		l := adj[v]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		// Dedupe in place.
		k := 0
		for i := range l {
			if i == 0 || l[i] != l[i-1] {
				l[k] = l[i]
				k++
			}
		}
		adj[v] = l[:k]
	}
	off := []int{0}
	var nbr []int32
	for _, l := range adj {
		nbr = append(nbr, l...)
		off = append(off, len(nbr))
	}
	return off, nbr
}
