package pattern

import (
	"math"

	"repro/internal/graph"
)

// The enumerator grows partial embeddings along a connected search order,
// generating candidates from the already-matched neighbor with the smallest
// data-graph degree. An "embedding" is an injection φ: VΨ → V preserving
// pattern edges (Definition 7; non-induced). The canonical filter keeps
// exactly one embedding per instance: the one whose tuple
// (φ(0),…,φ(|VΨ|−1)) is lexicographically minimal within its automorphism
// orbit — two embeddings share an edge-set image iff they differ by an
// automorphism, so this realizes Definition 8's edge-set counting.

// ForEachInstance calls fn once per instance (canonical embedding only).
func (p *Pattern) ForEachInstance(g *graph.Graph, alive []bool, fn func(phi []int32)) {
	p.enumerate(g, alive, 0, -1, func(phi []int32) {
		if p.isCanonical(phi) {
			fn(phi)
		}
	})
}

// ForEachInstanceContaining calls fn once per instance whose vertex set
// contains v. Each qualifying instance is reported exactly once: its
// canonical embedding maps a unique pattern vertex to v, and anchoring the
// search at each pattern vertex in turn finds it at exactly that anchor.
func (p *Pattern) ForEachInstanceContaining(g *graph.Graph, v int, alive []bool, fn func(phi []int32)) {
	for a := 0; a < p.n; a++ {
		p.enumerate(g, alive, a, v, func(phi []int32) {
			if p.isCanonical(phi) {
				fn(phi)
			}
		})
	}
}

// CountInstances returns µ(G,Ψ) over alive vertices. It counts all
// embeddings and divides by |Aut(Ψ)|, which is exact because every
// instance corresponds to exactly |Aut(Ψ)| embeddings.
func (p *Pattern) CountInstances(g *graph.Graph, alive []bool) int64 {
	var c int64
	p.enumerate(g, alive, 0, -1, func([]int32) { c++ })
	return c / int64(len(p.autos))
}

// CountInstancesUpTo counts instances but aborts once the count exceeds
// cap, returning (count so far, false). Budget prechecks use this to skip
// infeasible cells without paying for the full enumeration.
func (p *Pattern) CountInstancesUpTo(g *graph.Graph, alive []bool, cap int64) (int64, bool) {
	var c int64
	limit := cap * int64(len(p.autos))
	ok := p.enumerateStop(g, alive, 0, -1, func([]int32) bool {
		c++
		return c <= limit
	})
	return c / int64(len(p.autos)), ok
}

// Degrees returns the pattern-degree deg(v,Ψ) of every vertex
// (Definition 9) restricted to alive vertices.
func (p *Pattern) Degrees(g *graph.Graph, alive []bool) []int64 {
	deg := make([]int64, g.N())
	p.enumerate(g, alive, 0, -1, func(phi []int32) {
		for _, v := range phi {
			deg[v]++
		}
	})
	aut := int64(len(p.autos))
	for i := range deg {
		deg[i] /= aut
	}
	return deg
}

func (p *Pattern) isCanonical(phi []int32) bool {
	for _, sigma := range p.autos[1:] {
		for i := 0; i < p.n; i++ {
			a, b := phi[i], phi[sigma[i]]
			if a < b {
				break
			}
			if a > b {
				return false
			}
		}
	}
	return true
}

// enumerate runs the backtracking matcher using the search order rooted at
// pattern vertex start. If anchor ≥ 0, the root is pinned to data vertex
// anchor; otherwise all alive vertices are tried as the root.
func (p *Pattern) enumerate(g *graph.Graph, alive []bool, start, anchor int, fn func(phi []int32)) {
	p.enumerateStop(g, alive, start, anchor, func(phi []int32) bool {
		fn(phi)
		return true
	})
}

// enumerateStop is enumerate with early termination: fn returns false to
// abort the whole search. The return value reports whether the search ran
// to completion.
func (p *Pattern) enumerateStop(g *graph.Graph, alive []bool, start, anchor int, fn func(phi []int32) bool) bool {
	order := p.orders[start]
	back := p.back[start]
	phi := make([]int32, p.n)      // image by pattern vertex id
	assigned := make([]int32, p.n) // image by order position
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.n {
			return fn(phi)
		}
		bs := back[i]
		// Generate candidates from the matched back-neighbor with the
		// smallest degree.
		bestPos, bestDeg := bs[0], math.MaxInt
		for _, bp := range bs {
			if d := g.Degree(int(assigned[bp])); d < bestDeg {
				bestPos, bestDeg = bp, d
			}
		}
	cand:
		for _, c := range g.Neighbors(int(assigned[bestPos])) {
			if alive != nil && !alive[c] {
				continue
			}
			for j := 0; j < i; j++ {
				if assigned[j] == c {
					continue cand
				}
			}
			for _, bp := range bs {
				if bp != bestPos && !g.HasEdge(int(assigned[bp]), int(c)) {
					continue cand
				}
			}
			assigned[i] = c
			phi[order[i]] = c
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	if anchor >= 0 {
		if anchor >= g.N() || (alive != nil && !alive[anchor]) {
			return true
		}
		assigned[0] = int32(anchor)
		phi[order[0]] = int32(anchor)
		return rec(1)
	}
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		assigned[0] = int32(v)
		phi[order[0]] = int32(v)
		if !rec(1) {
			return false
		}
	}
	return true
}
