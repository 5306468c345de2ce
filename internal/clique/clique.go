// Package clique enumerates h-cliques. The listing algorithm follows the
// kClist approach of Danisch, Balalau & Sozio (WWW'18), the enumerator the
// paper uses: vertices are ranked by a degeneracy (core) ordering, the
// graph is oriented into a DAG along that ranking, and cliques are listed
// by recursively intersecting out-neighborhoods, so every h-clique is
// visited exactly once with candidate sets bounded by the degeneracy.
//
// Layout. A Lister works in rank space: a vertex's rank is its position
// in kcore's peel order, and the DAG is one CSR pair — an offsets array
// with an entry per rank and a targets array of ranks — whose lists are
// sorted by construction. Ranks of vertices peeled together sit together,
// so the walk reads adjacent memory however the input numbered its
// vertices; ids reappear only where a caller sees them.
//
// Visit order. Cliques are visited root by root in increasing rank of
// their rank-minimal member, and a clique's members are handed over in
// increasing rank. No other order is promised.
//
// Aggregation. The walk reports cliques at the leaf level: one call per
// (h−1)-member prefix with the candidates completing it. Counting adds
// the number of candidates, and degrees add one per candidate and the
// candidate count per prefix member, so neither touches the cliques one
// by one.
package clique

import (
	"repro/internal/graph"
	"repro/internal/kcore"
)

// Lister enumerates h-cliques of a fixed graph. Building a Lister computes
// the degeneracy orientation once, as the rank-space CSR DAG of the
// package comment, in two linear passes; the enumeration methods can
// then be invoked for any h. A Lister does not retain the graph.
type Lister struct {
	order  []int32 // order[r] = the vertex of rank r (kcore peel order)
	off    []int   // dst[off[r]:off[r+1]] are the out-neighbors of rank r
	dst    []int32 // out-neighbor ranks, all above their source, ascending per list
	maxOut int     // the longest out-list, which bounds every candidate set
}

// NewLister prepares a clique lister for g.
func NewLister(g *graph.Graph) *Lister {
	order, rank := kcore.Decompose(g).DegeneracyOrder()
	n := g.N()
	l := &Lister{order: order, off: make([]int, n+1)}
	for v := 0; v < n; v++ {
		r := rank[v]
		for _, w := range g.Neighbors(v) {
			if rank[w] > r {
				l.off[r+1]++
			}
		}
	}
	for r := 0; r < n; r++ {
		l.maxOut = max(l.maxOut, l.off[r+1])
		l.off[r+1] += l.off[r]
	}
	l.dst = make([]int32, l.off[n])
	fill := append([]int(nil), l.off[:n]...)
	// Visiting target ranks in ascending order appends to every list in
	// ascending order, so no list needs sorting.
	for s := 0; s < n; s++ {
		for _, w := range g.Neighbors(int(order[s])) {
			if r := rank[w]; r < int32(s) {
				l.dst[fill[r]] = int32(s)
				fill[r]++
			}
		}
	}
	return l
}

// outs returns the out-neighbor ranks of rank r.
func (l *Lister) outs(r int32) []int32 { return l.dst[l.off[r]:l.off[r+1]] }

// walk enumerates, in rank space, the h-cliques (h ≥ 1) whose rank-minimal
// member r satisfies r ≡ offset (mod stride), in increasing r. Every
// clique has exactly one rank-minimal member, so the stripes of one
// stride partition the clique set. Cliques are reported at the leaf:
// leaf(prefix, cand) stands for the len(cand) cliques prefix ∪ {c}, c ∈
// cand, where prefix holds the h−1 smallest ranks in increasing order
// and every c is above them; cand is never empty. Both slices are reused
// after leaf returns. leaf returns false to stop the walk, and walk
// reports whether it completed.
func (l *Lister) walk(h, offset, stride int, leaf func(prefix, cand []int32) bool) bool {
	n := len(l.order)
	if h == 1 {
		one := make([]int32, 1)
		for r := offset; r < n; r += stride {
			one[0] = int32(r)
			if !leaf(nil, one) {
				return false
			}
		}
		return true
	}
	prefix := make([]int32, h-1)
	bufs := make([][]int32, h)
	for i := 2; i < h; i++ {
		bufs[i] = make([]int32, 0, l.maxOut)
	}
	// rec extends prefix[:depth] by members drawn from cand, the ranks
	// above prefix[depth-1] adjacent to all of prefix[:depth]; it is
	// called only when cand can still complete a clique.
	var rec func(depth int, cand []int32) bool
	rec = func(depth int, cand []int32) bool {
		if depth == h-1 {
			return leaf(prefix, cand)
		}
		need := h - depth // members still to pick, u included
		for i, u := range cand {
			if len(cand)-i < need {
				break
			}
			prefix[depth] = u
			next := graph.IntersectSorted(cand[i+1:], l.outs(u), bufs[depth+1])
			if len(next) >= need-1 && !rec(depth+1, next) {
				return false
			}
		}
		return true
	}
	for r := offset; r < n; r += stride {
		prefix[0] = int32(r)
		if out := l.outs(int32(r)); len(out) >= h-1 && !rec(1, out) {
			return false
		}
	}
	return true
}

// ForEach calls fn once per h-clique. The slice passed to fn is reused
// between calls and must be copied if retained. Vertices within a clique
// are in degeneracy-rank order, not id order; cliques come in the visit
// order of the package comment.
func (l *Lister) ForEach(h int, fn func(clique []int32)) {
	l.ForEachStop(h, func(c []int32) bool {
		fn(c)
		return true
	})
}

// ForEachStop is ForEach with early termination: fn returns false to
// abort. The return value reports whether the enumeration completed.
func (l *Lister) ForEachStop(h int, fn func(clique []int32) bool) bool {
	if h < 1 {
		return true
	}
	clique := make([]int32, h)
	return l.walk(h, 0, 1, func(prefix, cand []int32) bool {
		for i, r := range prefix {
			clique[i] = l.order[r]
		}
		for _, r := range cand {
			clique[h-1] = l.order[r]
			if !fn(clique) {
				return false
			}
		}
		return true
	})
}

// Count returns the number of h-cliques in the graph.
func (l *Lister) Count(h int) int64 {
	var c int64
	if h < 1 {
		return 0
	}
	l.walk(h, 0, 1, func(_, cand []int32) bool {
		c += int64(len(cand))
		return true
	})
	return c
}

// Degrees returns the clique-degree deg(v,Ψ) of every vertex: the number of
// h-cliques containing v (Definition 3).
func (l *Lister) Degrees(h int) []int64 { return l.DegreesParallel(h, 1) }

// Count returns the number of h-cliques of g.
func Count(g *graph.Graph, h int) int64 { return NewLister(g).Count(h) }

// Degrees returns per-vertex h-clique degrees of g.
func Degrees(g *graph.Graph, h int) []int64 { return NewLister(g).Degrees(h) }

// ForEachContaining enumerates the h-cliques of g that contain vertex v and
// whose members are all alive (alive == nil means every vertex is alive).
// fn receives the h−1 members other than v; the slice is reused between
// calls. Cliques are enumerated in increasing id order of their members.
//
// This is the primitive behind the peeling step of (k,Ψ)-core
// decomposition: when v is removed, exactly these cliques disappear.
func ForEachContaining(g *graph.Graph, v int, h int, alive []bool, fn func(others []int32)) {
	if h < 2 {
		return
	}
	cand := make([]int32, 0, g.Degree(v))
	for _, w := range g.Neighbors(v) {
		if alive == nil || alive[w] {
			cand = append(cand, w)
		}
	}
	others := make([]int32, h-1)
	bufs := make([][]int32, h)
	var rec func(depth int, cand []int32)
	rec = func(depth int, cand []int32) {
		need := h - 1 - depth
		if need > len(cand) {
			return
		}
		if depth == h-2 {
			for _, u := range cand {
				others[depth] = u
				fn(others)
			}
			return
		}
		for i, u := range cand {
			others[depth] = u
			next := graph.IntersectSorted(cand[i+1:], g.Neighbors(int(u)), bufs[depth+1])
			rec(depth+1, next)
			bufs[depth+1] = next[:0]
		}
	}
	rec(0, cand)
}
