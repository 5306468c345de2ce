package clique

import (
	"math/bits"

	"repro/internal/graph"
)

// Rows is the bit-row form of a graph's adjacency: bit w of row v is set
// when v and w are adjacent. On a dense graph, such as a classical core
// or a located (k,Ψ)-core, a candidate set becomes a few words, and
// intersecting it with a neighbourhood is a word-wise AND instead of a
// branchy sorted-list merge.
//
// Both enumerations walk in id space: every clique is listed once, its
// members in increasing id order, and cliques come in lexicographic order
// of their members. That is the order ForEachContaining lists a vertex's
// cliques in, so a peel may take either form.
type Rows struct {
	n     int
	words int      // words per row, ⌈n/64⌉
	bits  []uint64 // row v is bits[v*words : (v+1)*words]
	// scratch is ForEachContaining's walk, kept between calls.
	scratch *bitWalk
}

// RowsPay is the fixed rule for taking the bit-row form of g: the rows
// take no more words than g has adjacency entries, n·⌈n/64⌉ ≤ 2m. It is
// not settable.
func RowsPay(g *graph.Graph) bool {
	n := g.N()
	return n > 0 && n*((n+63)>>6) <= 2*g.M()
}

// NewRows builds g's bit rows, whatever RowsPay says.
func NewRows(g *graph.Graph) *Rows {
	n := g.N()
	r := &Rows{n: n, words: (n + 63) >> 6}
	r.bits = make([]uint64, n*r.words)
	for v := 0; v < n; v++ {
		row := r.row(v)
		for _, w := range g.Neighbors(v) {
			row[w>>6] |= 1 << (w & 63)
		}
	}
	return r
}

// NewAlive returns the alive mask of an n-vertex graph with every vertex
// alive; Kill clears a vertex from it.
func NewAlive(n int) []uint64 {
	alive := make([]uint64, (n+63)>>6)
	for v := 0; v < n; v++ {
		alive[v>>6] |= 1 << (v & 63)
	}
	return alive
}

// Kill marks v dead in an alive mask.
func Kill(alive []uint64, v int) { alive[v>>6] &^= 1 << (v & 63) }

func (r *Rows) row(v int) []uint64 { return r.bits[v*r.words : (v+1)*r.words] }

// bitWalk extends a clique prefix by members drawn from bit candidate
// sets. A candidate set is a word slice whose word 0 is absolute word
// base; every word outside it is zero. At the leaf, a walk either adds
// every clique to deg, when deg is set, or hands each one to emit.
type bitWalk struct {
	r      *Rows
	prefix []int32
	bufs   [][]uint64 // bufs[d] holds the candidates after prefix[d]; the last, a containing walk's root set
	deg    []int64
	emit   func(clique []int32)
}

func newBitWalk(r *Rows, h int) *bitWalk {
	w := &bitWalk{r: r, prefix: make([]int32, h), bufs: make([][]uint64, h)}
	for i := range w.bufs {
		w.bufs[i] = make([]uint64, r.words)
	}
	return w
}

// rec picks need ≥ 1 more members from cand, the vertices adjacent to all
// of prefix[:depth] and above its last member, in increasing id order.
// cand is never empty.
func (w *bitWalk) rec(depth, need, base int, cand []uint64) {
	if need == 1 {
		w.leaf(depth, base, cand)
		return
	}
	if need == 2 && w.deg != nil {
		w.pairs(depth, base, cand)
		return
	}
	left := popcount(cand)
	for i, word := range cand {
		for ; word != 0; word &= word - 1 {
			if left < need {
				return
			}
			left--
			u := (base+i)<<6 | bits.TrailingZeros64(word)
			w.prefix[depth] = int32(u)
			// next = cand ∩ N(u), above u: from u's word to the last
			// non-zero word of the intersection.
			row, next := w.r.row(u), w.bufs[depth]
			hi := 0
			for j := i; j < len(cand); j++ {
				x := cand[j] & row[base+j]
				if j == i {
					x &= ^uint64(1) << (u & 63)
				}
				next[j-i] = x
				if x != 0 {
					hi = j - i + 1
				}
			}
			if hi > 0 {
				w.rec(depth+1, need-1, base+i, next[:hi])
			}
		}
	}
}

// leaf reports the cliques prefix[:depth] ∪ {c}, c in cand.
func (w *bitWalk) leaf(depth, base int, cand []uint64) {
	if w.deg == nil {
		clique := w.prefix[:depth+1]
		for i, word := range cand {
			for ; word != 0; word &= word - 1 {
				clique[depth] = int32((base+i)<<6 | bits.TrailingZeros64(word))
				w.emit(clique)
			}
		}
		return
	}
	k := int64(0)
	for i, word := range cand {
		for ; word != 0; word &= word - 1 {
			w.deg[(base+i)<<6|bits.TrailingZeros64(word)]++
			k++
		}
	}
	for _, p := range w.prefix[:depth] {
		w.deg[p] += k
	}
}

// pairs adds to deg the cliques prefix[:depth] ∪ {x, y}, x and y
// adjacent members of cand: x lies in one such clique per neighbour it has
// in cand, so a popcount per member replaces walking the pairs.
func (w *bitWalk) pairs(depth, base int, cand []uint64) {
	var twice int64
	for i, word := range cand {
		for ; word != 0; word &= word - 1 {
			x := (base+i)<<6 | bits.TrailingZeros64(word)
			row := w.r.row(x)[base:]
			k := 0
			for j, c := range cand {
				k += bits.OnesCount64(c & row[j])
			}
			w.deg[x] += int64(k)
			twice += int64(k)
		}
	}
	for _, p := range w.prefix[:depth] {
		w.deg[p] += twice / 2
	}
}

// root loads v's neighbours into the candidate buffer bufs[d], masked by
// keep (nil keeps all) and, when above is set, to the ids above v. It
// returns the trimmed candidate set and its base word; the set is empty
// when v has no such neighbour.
func (w *bitWalk) root(v, d int, keep []uint64, above bool) (int, []uint64) {
	row, buf := w.r.row(v), w.bufs[d]
	lo, hi := len(row), 0
	from := 0
	if above {
		from = v >> 6
	}
	for j := from; j < len(row); j++ {
		x := row[j]
		if keep != nil {
			x &= keep[j]
		}
		if above && j == from {
			x &= ^uint64(1) << (v & 63)
		}
		buf[j] = x
		if x != 0 {
			lo, hi = min(lo, j), j+1
		}
	}
	if hi == 0 {
		return 0, nil
	}
	return lo, buf[lo:hi]
}

func popcount(ws []uint64) int {
	c := 0
	for _, x := range ws {
		c += bits.OnesCount64(x)
	}
	return c
}

// Degrees returns the h-clique degree of every vertex; it equals
// Lister.Degrees on the same graph.
func (r *Rows) Degrees(h int) []int64 { return r.DegreesParallel(h, 1) }

// DegreesParallel is Degrees over the given number of workers (0 =
// GOMAXPROCS), each walking the roots r ≡ w (mod workers) with private
// counters.
func (r *Rows) DegreesParallel(h int, workers int) []int64 {
	n := r.n
	if h < 2 || n == 0 {
		deg := make([]int64, n)
		if h == 1 {
			for v := range deg {
				deg[v] = 1
			}
		}
		return deg
	}
	workers = workersFor(workers, n)
	partial := make([][]int64, workers)
	stripes(workers, func(s, stride int) {
		w := newBitWalk(r, h)
		w.deg = make([]int64, n)
		for v := s; v < n; v += stride {
			if base, cand := w.root(v, 0, nil, true); cand != nil {
				w.prefix[0] = int32(v)
				w.rec(1, h-1, base, cand)
			}
		}
		partial[s] = w.deg
	})
	deg := partial[0]
	for _, d := range partial[1:] {
		for v, x := range d {
			deg[v] += x
		}
	}
	return deg
}

// ForEachContaining is the bit-row form of the package's
// ForEachContaining: it enumerates the h-cliques that contain v and whose
// members are all set in alive (nil means every vertex is alive), in the
// same order. fn receives the h−1 members other than v, in increasing id
// order; the slice is reused between calls. The walk reuses scratch space
// held by r, so r serves one ForEachContaining at a time.
func (r *Rows) ForEachContaining(v, h int, alive []uint64, fn func(others []int32)) {
	if h < 2 {
		return
	}
	w := r.scratch
	if w == nil || len(w.prefix) < h {
		w = newBitWalk(r, h)
		r.scratch = w
	}
	w.emit = fn
	if base, cand := w.root(v, h-1, alive, false); cand != nil {
		w.rec(0, h-1, base, cand)
	}
}
