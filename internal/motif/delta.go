package motif

import (
	"repro/internal/clique"
	"repro/internal/graph"
)

// CliqueEdgeDelta counts the h-cliques of g that contain the undirected
// edge {u, v}, which must be present in g. It returns the count together
// with the per-vertex incidence: delta[w] is how many of those cliques
// contain w (u and v appear with the full count). This is the exact
// amount by which inserting or deleting the edge changes µ(G, Ψ) and the
// Ψ-degree vector for Ψ = h-clique, computed in O(touched instances):
// every h-clique through {u, v} is {u, v} plus an (h−2)-clique in the
// common neighborhood of u and v, so the enumeration never leaves that
// (typically tiny) induced subgraph.
func CliqueEdgeDelta(g *graph.Graph, u, v, h int) (int64, map[int32]int64) {
	delta := make(map[int32]int64)
	switch {
	case h < 2:
		return 0, delta
	case h == 2:
		delta[int32(u)] = 1
		delta[int32(v)] = 1
		return 1, delta
	}
	common := graph.IntersectSorted(g.Neighbors(u), g.Neighbors(v), nil)
	if len(common) < h-2 {
		return 0, delta
	}
	var total int64
	if h == 3 {
		total = int64(len(common))
		for _, w := range common {
			delta[w] = 1
		}
	} else {
		sub := g.InducedSorted(common)
		clique.NewLister(sub.Graph).ForEach(h-2, func(c []int32) {
			total++
			for _, lv := range c {
				delta[sub.Orig[lv]]++
			}
		})
	}
	if total > 0 {
		delta[int32(u)] = total
		delta[int32(v)] = total
	}
	return total, delta
}
