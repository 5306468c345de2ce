package graph

import "slices"

// Mutator applies edge insertions and deletions to a graph copy-on-write:
// the parent graph is never modified. The working graph shares the
// parent's CSR arrays and keeps the lists the batch rewrites in a small
// overlay, so starting a mutation is O(1) and each operation costs only
// the two lists it touches. Freeze then folds the overlay into a fresh
// CSR in O(N + M) block copies. It is the substrate of dsd.Solver's
// versioned snapshots: in-flight readers of the parent keep a consistent
// view while the mutator builds its successor.
//
// The working graph returned by Graph() is live — each Insert/Delete
// mutates it in place — so callers that interleave reads with mutations
// (incremental core maintenance does) see the graph exactly as of the
// last operation, which is the state those algorithms are defined on.
// A Mutator is not safe for concurrent use.
type Mutator struct {
	g *Graph
}

// NewMutator starts a copy-on-write mutation of g.
func NewMutator(g *Graph) *Mutator {
	if g.ov != nil { // another mutator's live graph: never share its lists
		g = g.flatten()
	}
	return &Mutator{g: &Graph{n: g.n, off: g.off, nbr: g.nbr, m: g.m, ov: map[int32][]int32{}}}
}

// Graph returns the live working graph: a valid *Graph over the parent's
// arrays and the overlay, reflecting every operation applied so far. It
// must not be retained across further mutations by callers that need an
// immutable view — Freeze for that.
func (mt *Mutator) Graph() *Graph { return mt.g }

// Freeze returns the working graph as a new immutable CSR graph, with no
// overlay and nothing shared with the parent or the Mutator.
func (mt *Mutator) Freeze() *Graph { return mt.g.flatten() }

// Insert adds the undirected edge {u, v}, growing the vertex set if
// needed, and reports whether the graph changed (false for self-loops,
// negative ids, and already-present edges).
func (mt *Mutator) Insert(u, v int) bool {
	if u == v || u < 0 || v < 0 {
		return false
	}
	for ; mt.g.n <= max(u, v); mt.g.n++ {
		mt.g.ov[int32(mt.g.n)] = nil // a new vertex starts isolated
	}
	if mt.g.HasEdge(u, v) {
		return false
	}
	mt.insertArc(u, v)
	mt.insertArc(v, u)
	mt.g.m++
	return true
}

// own returns u's list private to the mutator, copying the parent's on
// first touch with room for one insert.
func (mt *Mutator) own(u int) []int32 {
	if l, ok := mt.g.ov[int32(u)]; ok {
		return l
	}
	l := mt.g.Neighbors(u)
	return append(make([]int32, 0, len(l)+1), l...)
}

func (mt *Mutator) insertArc(u, v int) {
	l := mt.own(u)
	i, _ := slices.BinarySearch(l, int32(v))
	mt.g.ov[int32(u)] = slices.Insert(l, i, int32(v))
}

// Delete removes the undirected edge {u, v} and reports whether the
// graph changed (false when the edge does not exist).
func (mt *Mutator) Delete(u, v int) bool {
	if u < 0 || v < 0 || u >= mt.g.n || v >= mt.g.n || !mt.g.HasEdge(u, v) {
		return false
	}
	mt.deleteArc(u, v)
	mt.deleteArc(v, u)
	mt.g.m--
	return true
}

func (mt *Mutator) deleteArc(u, v int) {
	l := mt.own(u)
	i, _ := slices.BinarySearch(l, int32(v))
	mt.g.ov[int32(u)] = slices.Delete(l, i, i+1)
}
