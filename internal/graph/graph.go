// Package graph provides the undirected, unweighted, simple graph
// representation used by every algorithm in this repository, together with
// builders, induced subgraphs, traversal helpers, and edge-list I/O.
//
// Vertices are dense integers 0..N-1. A graph is stored in compressed
// sparse row form: one array of N+1 offsets and one array holding every
// adjacency list back to back. Both are pointer-free, so a graph is two
// heap objects however many vertices it has, and the garbage collector
// never scans them. Adjacency lists are sorted, which makes edge queries
// O(log d) and set intersections (used heavily by the clique and pattern
// enumerators) cost no more than a linear merge.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// Graph is an immutable undirected simple graph. The zero value is the
// empty graph. Construct non-empty graphs with a Builder or FromEdges.
type Graph struct {
	n   int     // number of vertices
	off []int   // v's neighbors are nbr[off[v]:off[v+1]]; n+1 entries (nil in the zero value)
	nbr []int32 // every sorted adjacency list, back to back
	m   int     // number of undirected edges
	// ov holds the lists a live Mutator graph has rewritten, and an entry
	// for every vertex it grew, over the parent's off/nbr it shares. It is
	// nil on every other graph.
	ov map[int32][]int32
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	if g.ov != nil {
		if l, ok := g.ov[int32(v)]; ok {
			return len(l)
		}
	}
	return g.off[v+1] - g.off[v]
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified; its capacity equals its
// length, so appending to it copies.
func (g *Graph) Neighbors(v int) []int32 {
	if g.ov != nil {
		if l, ok := g.ov[int32(v)]; ok {
			return l[:len(l):len(l)]
		}
	}
	hi := g.off[v+1]
	return g.nbr[g.off[v]:hi:hi]
}

// MaxDegree returns the maximum vertex degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		d = max(d, g.Degree(v))
	}
	return d
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	// Search the shorter list.
	a := g.Neighbors(u)
	if b := g.Neighbors(v); len(b) < len(a) {
		a, v = b, u
	}
	_, ok := slices.BinarySearch(a, int32(v))
	return ok
}

// Edges calls fn for every undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are dropped, so inputs need not be clean.
type Builder struct {
	n   int
	src []int32
	dst []int32
}

// NewBuilder returns a Builder for a graph with n vertices. Edges may
// reference vertices beyond n; the vertex count grows automatically.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewBuilderCap returns a Builder for n vertices with room for edges
// edges before it reallocates.
func NewBuilderCap(n, edges int) *Builder {
	edges = max(edges, 0)
	return &Builder{n: n, src: make([]int32, 0, edges), dst: make([]int32, 0, edges)}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.src = append(b.src, int32(u))
	b.dst = append(b.dst, int32(v))
}

// Build materializes the graph without sorting: a counting pass buckets
// every arc by its target, then a walk over the targets in increasing
// order appends each to its source's list, so every list comes out
// sorted with any repeated edge next to its first copy. A linear pass
// then drops the repeats, compacting the lists in place.
func (b *Builder) Build() *Graph {
	n := b.n
	// off[v+1] first counts v's arcs, duplicates included; summed, off[v]
	// is where v's list starts.
	off := make([]int, n+1)
	for i := range b.src {
		off[b.src[i]+1]++
		off[b.dst[i]+1]++
	}
	for v := range n {
		off[v+1] += off[v]
	}
	// byTarget[off[t]:off[t+1]] collects the sources of t's arcs. The
	// graph is symmetric, so t's in-degree equals its out-degree and one
	// offsets array serves both.
	byTarget := make([]int32, off[n])
	next := slices.Clone(off[:n])
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		byTarget[next[v]] = u
		next[v]++
		byTarget[next[u]] = v
		next[u]++
	}
	nbr := make([]int32, off[n])
	copy(next, off)
	for t := range n {
		for _, s := range byTarget[off[t]:off[t+1]] {
			nbr[next[s]] = int32(t)
			next[s]++
		}
	}
	w, lo := 0, 0
	for v := range n {
		hi := off[v+1]
		off[v] = w
		for _, x := range nbr[lo:hi] {
			if w == off[v] || nbr[w-1] != x {
				nbr[w] = x
				w++
			}
		}
		lo = hi
	}
	off[n] = w
	return &Graph{n: n, off: off, nbr: nbr[:w:w], m: w / 2}
}

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph { return g.flatten() }

// flatten returns a fresh overlay-free copy of g: each run of vertices
// between two rewritten lists is one block copy of the parent's arrays
// with its offsets shifted, and each rewritten list is copied in after
// its run. It costs O(N + M) whatever the overlay holds.
func (g *Graph) flatten() *Graph {
	f := &Graph{n: g.n, m: g.m, off: make([]int, g.n+1), nbr: make([]int32, 0, 2*g.m)}
	v := 0
	// Every vertex past the parent's is in the overlay, so each run of
	// untouched vertices lies inside the parent's arrays.
	for _, t := range append(slices.Sorted(maps.Keys(g.ov)), int32(g.n)) {
		if v < int(t) {
			shift := len(f.nbr) - g.off[v]
			for x := v; x < int(t); x++ {
				f.off[x] = g.off[x] + shift
			}
			f.nbr = append(f.nbr, g.nbr[g.off[v]:g.off[t]]...)
		}
		if v = int(t); v < g.n {
			f.off[v] = len(f.nbr)
			f.nbr = append(f.nbr, g.ov[t]...)
			v++
		}
	}
	f.off[g.n] = len(f.nbr)
	return f
}

// Subgraph is an induced subgraph together with the mapping back to the
// vertices of the graph it was extracted from.
type Subgraph struct {
	*Graph
	// Orig[i] is the vertex id in the parent graph of local vertex i.
	Orig []int32
}

// Induced returns the subgraph induced by the given vertex set. The vertex
// set may be in any order and may contain duplicates (ignored). Local
// vertices are numbered in the sorted order of their original ids.
func (g *Graph) Induced(vs []int32) *Subgraph {
	orig := slices.Clone(vs)
	slices.Sort(orig)
	return g.InducedSorted(slices.Compact(orig))
}

// InducedKeep returns the subgraph induced by the vertices for which keep
// returns true, numbered like Induced's: in increasing original id.
func (g *Graph) InducedKeep(keep func(v int) bool) *Subgraph {
	var orig []int32
	for v := 0; v < g.n; v++ {
		if keep(v) {
			orig = append(orig, int32(v))
		}
	}
	return g.InducedSorted(orig)
}

// InducedSorted returns the subgraph induced by vs, which must be sorted
// by increasing id without duplicates and becomes the result's Orig. It
// maps ids through a dense index, visits only the vertices of vs, and
// writes a CSR subgraph: its lists fill one backing array sized by their
// parent degrees, indexed by one offsets array.
func (g *Graph) InducedSorted(vs []int32) *Subgraph {
	// local[v] is v's local id plus one; 0 marks a vertex outside vs.
	lp, _ := localIDs.Get().(*[]int32)
	if lp == nil || len(*lp) < g.n {
		fresh := make([]int32, g.n)
		lp = &fresh
	}
	local := (*lp)[:g.n]
	size := 0
	for i, v := range vs {
		local[v] = int32(i) + 1
		size += g.Degree(int(v))
	}
	nbr := make([]int32, 0, size)
	off := make([]int, len(vs)+1)
	for i, v := range vs {
		for _, w := range g.Neighbors(int(v)) {
			if lw := local[w]; lw > 0 {
				nbr = append(nbr, lw-1)
			}
		}
		off[i+1] = len(nbr)
	}
	for _, v := range vs {
		local[v] = 0
	}
	localIDs.Put(lp)
	return &Subgraph{Graph: &Graph{n: len(vs), off: off, nbr: nbr, m: len(nbr) / 2}, Orig: vs}
}

// localIDs recycles InducedSorted's dense index, all zero between calls:
// each call clears only the entries it set, so a subgraph costs O(|vs| +
// its parent degrees) rather than a fresh index as long as the graph.
var localIDs sync.Pool

// ConnectedComponents returns the vertex sets of the connected components,
// largest first.
func (g *Graph) ConnectedComponents() [][]int32 {
	seen := make([]bool, g.N())
	var comps [][]int32
	queue := make([]int32, 0, 64)
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], int32(s))
		comp := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, w)
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// BFSFarthest runs a breadth-first search from src and returns the farthest
// vertex reached and its distance (the eccentricity of src within its
// component).
func (g *Graph) BFSFarthest(src int) (far int, dist int) {
	distv := make([]int32, g.N())
	for i := range distv {
		distv[i] = -1
	}
	distv[src] = 0
	queue := []int32{int32(src)}
	far, dist = src, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if distv[w] < 0 {
				distv[w] = distv[v] + 1
				if int(distv[w]) > dist {
					dist = int(distv[w])
					far = int(w)
				}
				queue = append(queue, w)
			}
		}
	}
	return far, dist
}

// Validate checks internal invariants (well-formed offsets, sorted
// deduped adjacency, symmetric edges, no self-loops, consistent edge
// count). It is used by tests and returns a descriptive error on the
// first violation found.
func (g *Graph) Validate() error {
	if g.ov == nil && (g.n > 0 || g.off != nil) {
		if len(g.off) != g.n+1 || g.off[0] != 0 || g.off[g.n] > len(g.nbr) {
			return fmt.Errorf("offsets malformed: %d offsets for %d vertices over %d arcs", len(g.off), g.n, len(g.nbr))
		}
		for v := range g.n {
			if g.off[v+1] < g.off[v] {
				return fmt.Errorf("offsets of %d decrease", v)
			}
		}
	}
	total := 0
	for v := 0; v < g.n; v++ {
		l := g.Neighbors(v)
		for i := range l {
			w := int(l[i])
			if w == v {
				return fmt.Errorf("self-loop at vertex %d", v)
			}
			if w < 0 || w >= g.N() {
				return fmt.Errorf("vertex %d has out-of-range neighbor %d", v, w)
			}
			if i > 0 && l[i] <= l[i-1] {
				return fmt.Errorf("adjacency of %d not sorted/deduped at index %d", v, i)
			}
			if !g.HasEdge(w, v) {
				return fmt.Errorf("edge %d->%d not symmetric", v, w)
			}
		}
		total += len(l)
	}
	if total != 2*g.m {
		return fmt.Errorf("edge count mismatch: adjacency total %d, 2m=%d", total, 2*g.m)
	}
	return nil
}

// gallopRatio is the size ratio above which IntersectSorted gallops. A
// linear merge costs O(|a|+|b|); galloping each element of the shorter
// input a through the longer b (exponential search from the last match,
// then binary search) costs O(|a|·log(|b|/|a|)). The merge's sequential
// scan is cheaper per step, so galloping pays only once b is more than
// about gallopRatio times longer than a. Fixed, not tunable.
const gallopRatio = 16

// IntersectSorted writes the intersection of sorted slices a and b into out
// (which may be nil) and returns it, in increasing order. It is the
// workhorse of the clique enumerators. The cost is that of the smaller
// side: inputs of similar length are merged linearly, and when one is
// more than gallopRatio times longer than the other, each element of the
// shorter one gallops through the longer.
func IntersectSorted(a, b, out []int32) []int32 {
	out = out[:0]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return out
	}
	if len(b) > gallopRatio*len(a) {
		return gallop(a, b, out)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// gallop appends a ∩ b to out for sorted a much shorter than sorted b.
func gallop(a, b, out []int32) []int32 {
	lo := 0 // every b[:lo] is below the current element of a
	for _, x := range a {
		// Exponential search: double the step until b[hi] ≥ x or hi
		// runs off the end; b[lo-1] < x holds throughout.
		hi, step := lo, 1
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search b[lo:hi] for the first element ≥ x.
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(b) {
			break
		}
		if b[lo] == x {
			out = append(out, x)
			lo++
		}
	}
	return out
}
