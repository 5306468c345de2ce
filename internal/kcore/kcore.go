// Package kcore implements classical (edge-based) k-core decomposition
// (Seidman; Batagelj & Zaversnik) and the degeneracy ordering derived from
// it. Both are substrates for the paper's algorithms: the degeneracy order
// drives the k-clique enumerator, and classical core numbers supply the
// γ(v,Ψ) upper bounds used by CoreApp.
package kcore

import "repro/internal/graph"

// Decomposition holds the result of a classical core decomposition.
type Decomposition struct {
	// Core[v] is the core number of vertex v.
	Core []int32
	// Order lists the vertices in peel order (non-decreasing core number);
	// its reverse is a degeneracy ordering.
	Order []int32
	// Pos[v] is the index of v in Order.
	Pos []int32
	// KMax is the maximum core number (the degeneracy of the graph).
	KMax int32
}

// Decompose computes core numbers for every vertex in O(n+m).
//
// It is the bin-sort peel of Batagelj & Zaversnik, written out instead of
// run on the generic bucketq queue because it sits inside every
// clique.NewLister. Each vertex owns one {key, next, prev} record, so its
// key and both bucket links share a cache line, and bucket heads are
// indexed by degree. A neighbour whose key is already at or below the current
// core (popped vertices hold key −1) cannot decrease and is skipped
// before any link is touched.
//
// The peel order is a contract: the degeneracy order it yields decides
// the order cliques are enumerated in. Vertices enter their initial
// bucket in increasing id order, every decrease pushes to the bucket
// front, and each step pops the front of the lowest non-empty bucket, so
// equal keys leave last-in first-out — the discipline of bucketq, which
// this loop reproduces bit for bit.
func Decompose(g *graph.Graph) *Decomposition {
	n := g.N()
	d := &Decomposition{
		Core:  make([]int32, n),
		Order: make([]int32, n),
		Pos:   make([]int32, n),
	}
	const nilItem = int32(-1)
	type record struct{ key, next, prev int32 }
	recs := make([]record, n)
	heads := make([]int32, g.MaxDegree()+1)
	for k := range heads {
		heads[k] = nilItem
	}
	// push puts v at the front of bucket k.
	push := func(v, k int32) {
		h := heads[k]
		recs[v] = record{key: k, next: h, prev: nilItem}
		if h != nilItem {
			recs[h].prev = v
		}
		heads[k] = v
	}
	for v := 0; v < n; v++ {
		push(int32(v), int32(g.Degree(v)))
	}
	// Popped keys never fall: every decrease is clamped at the current
	// core, so cur is both the scan cursor and the core number.
	cur := int32(0)
	for i := range d.Order {
		for heads[cur] == nilItem {
			cur++
		}
		v := heads[cur]
		next := recs[v].next
		heads[cur] = next
		if next != nilItem {
			recs[next].prev = nilItem
		}
		recs[v].key = -1
		d.Core[v] = cur
		d.Order[i] = v
		d.Pos[v] = int32(i)
		for _, w := range g.Neighbors(int(v)) {
			r := recs[w]
			if r.key <= cur {
				continue
			}
			if r.prev != nilItem {
				recs[r.prev].next = r.next
			} else {
				heads[r.key] = r.next
			}
			if r.next != nilItem {
				recs[r.next].prev = r.prev
			}
			push(w, r.key-1)
		}
	}
	d.KMax = cur
	return d
}

// CoreSubgraph returns the k-core of g: the subgraph induced by vertices
// with core number ≥ k. The result may be empty.
func CoreSubgraph(g *graph.Graph, d *Decomposition, k int32) *graph.Subgraph {
	return g.InducedKeep(func(v int) bool { return d.Core[v] >= k })
}

// KMaxCore returns the kmax-core of g along with kmax.
func KMaxCore(g *graph.Graph) (*graph.Subgraph, int32) {
	d := Decompose(g)
	return CoreSubgraph(g, d, d.KMax), d.KMax
}
