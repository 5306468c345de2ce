// Package flownet builds the densest-subgraph flow networks of the paper:
// Goldberg's network for edge density (§4.1 remark, in its degree form),
// the (h−1)-clique network of Algorithm 1 for h-clique density, the
// pattern-instance network of PExact (Algorithm 8), and the grouped
// construct+ network of Algorithm 7 used by CorePExact.
//
// A Side is one family's network over a fixed graph. Its topology is
// the same at every probe α, so a side adds the arcs once and rewrites
// only their capacities at every later probe. Every probe takes α as an
// exact rational num/den and scales all capacities by den, so the
// networks are int64 and exact. The +∞ edges become one more than the
// total of the finite capacities, and a probe whose capacities would
// overflow int64 returns an error.
//
// All families share the node layout: node 0 = source s, node 1 = sink t,
// node 2+i = graph vertex i, nodes after that = instance (or group) nodes.
// The decision they encode: the minimal min s-t cut's source side holds a
// vertex iff the graph has a subgraph of Ψ-density strictly greater than
// α, and its vertices then induce such a subgraph. At α equal to the
// optimum density the cut is exactly {s}: an empty side certifies that
// nothing beats α, which is what the Dinkelbach searches stop on.
package flownet

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/motif"
)

const (
	// Source and Sink are the fixed node ids of s and t.
	Source = 0
	Sink   = 1
	// VertexBase is the node id of graph vertex 0.
	VertexBase = 2
)

// Net couples a flow network with the graph it was built from.
type Net struct {
	*flow.Network
	NVertices int
}

// VertexNode returns the network node of graph vertex v.
func VertexNode(v int) int { return VertexBase + v }

// SolveVertices runs max-flow/min-cut and returns the graph vertices on
// the minimal source side, or nil when the cut is {s} (no subgraph denser
// than α).
func (n *Net) SolveVertices() []int32 {
	vs, _ := n.SolveVerticesCtx(context.Background())
	return vs
}

// SolveVerticesCtx is SolveVertices with cancellation points inside the
// max-flow run (see flow.MaxFlowCtx). On cancellation nothing is
// certified: the cut is not computed and the context's error returns —
// callers must not read an "nothing beats α" out of the nil slice.
func (n *Net) SolveVerticesCtx(ctx context.Context) ([]int32, error) {
	if _, err := n.MaxFlowCtx(ctx, Source, Sink); err != nil {
		return nil, err
	}
	inS := n.MinCutSource(Source)
	var vs []int32
	for v := 0; v < n.NVertices; v++ {
		if inS[VertexNode(v)] {
			vs = append(vs, int32(v))
		}
	}
	return vs, nil
}

// Side is the flow network of one family over one fixed graph. The
// first Build adds its arcs into the arena the side was given (recycling
// it, or a fresh one for nil), and the first run indexes them. Every
// later Build rewrites each arc's capacity in place, in insertion order,
// and sets every reverse arc to 0: no AddEdge and no re-index. Each
// Build invalidates the Net the previous one returned, which suits the
// Dinkelbach searches' build→solve→discard cadence.
type Side struct {
	family string
	net    Net
	nodes  int
	edges  int
	built  bool
	// total adds every finite capacity of the network at num/den to t;
	// fill writes every arc at num/den, in insertion order, with inf for
	// the paper's +∞.
	total func(t *total, num, den int64)
	fill  func(w *arcs, num, den, inf int64)
}

// NewSide picks the network family of o over g — Goldberg's network for
// edges, the (h−1)-clique network for h-cliques, and the instance
// network for patterns (grouped = construct+) — recycling the arena f
// (nil for a fresh one).
func NewSide(f *flow.Network, g *graph.Graph, o motif.Oracle, grouped bool) *Side {
	if c, ok := o.(motif.Clique); ok {
		if c.H == 2 {
			return NewEDSSide(f, g, nil)
		}
		return NewCDSSide(f, g.N(), NewCliqueSide(g, c.H))
	}
	return NewPDSSide(f, g.N(), NewPatternSide(g, o, grouped))
}

// Build returns the side's network at the probe α = num/den. It fails,
// and leaves the network as it was, when α is invalid or the scaled
// capacities overflow int64.
func (s *Side) Build(num, den int64) (*Net, error) {
	num, den, err := scale(num, den)
	if err != nil {
		return nil, err
	}
	var t total
	s.total(&t, num, den)
	inf, err := t.inf(s.family)
	if err != nil {
		return nil, err
	}
	w := arcs{f: s.net.Network, add: !s.built}
	if w.add {
		if w.f == nil {
			w.f = flow.NewNetwork(s.nodes)
		} else {
			w.f.Reset(s.nodes)
		}
		w.f.Reserve(s.edges)
		s.net.Network, s.built = w.f, true
	}
	s.fill(&w, num, den, inf)
	return &s.net, nil
}

// Nodes returns the node count of the side's network (Figure 9's
// metric).
func (s *Side) Nodes() int { return s.nodes }

// Arena returns the side's network arena, for the side of a smaller
// graph to recycle once this one is done; nil for a nil side.
func (s *Side) Arena() *flow.Network {
	if s == nil {
		return nil
	}
	return s.net.Network
}

// arcs writes a side's arcs in insertion order: it adds them on the
// first build and rewrites the capacity of the next one on later builds.
type arcs struct {
	f    *flow.Network
	add  bool
	next int
}

func (w *arcs) edge(u, v int, c int64) {
	if w.add {
		w.f.AddEdge(u, v, c)
		return
	}
	w.f.SetCap(w.next, c)
	w.next++
}

// scale validates the probe α = num/den and reduces it to lowest terms,
// keeping the scaled capacities as small as the probe allows.
func scale(num, den int64) (int64, int64, error) {
	if num < 0 || den <= 0 {
		return 0, 0, fmt.Errorf("flownet: invalid probe density %d/%d", num, den)
	}
	a, b := num, den
	for b != 0 {
		a, b = b, a%b
	}
	return num / a, den / a, nil
}

// total sums the finite capacities a builder is about to add, as a sum of
// products, remembering whether any step overflowed int64.
type total struct {
	sum      int64
	overflow bool
}

// add adds the product of the (non-negative) factors to the sum.
func (t *total) add(factors ...int64) {
	p := int64(1)
	for _, f := range factors {
		if f != 0 && p > math.MaxInt64/f {
			t.overflow = true
			return
		}
		p *= f
	}
	if p > math.MaxInt64-t.sum {
		t.overflow = true
		return
	}
	t.sum += p
}

// inf returns the capacity that stands in for the paper's +∞ edges: one
// more than the total of every finite capacity, so no minimum cut can
// afford it, and every flow value stays below it. It fails when that
// total does not fit int64 — the network is refused instead of wrapping.
func (t *total) inf(family string) (int64, error) {
	t.add(1)
	if t.overflow {
		return 0, fmt.Errorf("flownet: %s network capacities overflow int64", family)
	}
	return t.sum, nil
}

// NewEDSSide returns the edge-density side of g: s→v with capacity
// deg(v)·den, v→t with 2·num, and u↔v with den per direction for every
// edge, at α = num/den. A source side S costs 2m·den − 2(den·e(S) −
// num·|S|), so the cut is the trivial {s} exactly when no subgraph is
// denser than α. This is the degree form of Goldberg's network: its
// total source capacity is 2m·den rather than n·m·den.
//
// Vertices in anchors (nil for none) are pinned to the source side by
// an s→v edge no cut can afford, so the source side ⊇ anchors maximizes
// den·e(S) − num·|S| over those supersets only (the §6.3 query network).
// f is a network arena to recycle (nil for a fresh one); the caller must
// be done with any Net previously built over it.
func NewEDSSide(f *flow.Network, g *graph.Graph, anchors []int32) *Side {
	pinned := make([]bool, g.N())
	for _, q := range anchors {
		pinned[q] = true
	}
	n, m := int64(g.N()), int64(g.M())
	return &Side{
		family: "EDS",
		net:    Net{Network: f, NVertices: g.N()},
		nodes:  2 + g.N(),
		edges:  2*g.N() + 2*g.M(),
		total: func(t *total, num, den int64) {
			t.add(4, m, den)
			t.add(2, n, num)
		},
		fill: func(w *arcs, num, den, inf int64) {
			for v := range g.N() {
				c := int64(g.Degree(v)) * den
				if pinned[v] {
					c = inf
				}
				w.edge(Source, VertexNode(v), c)
				w.edge(VertexNode(v), Sink, 2*num)
			}
			g.Edges(func(u, v int) {
				w.edge(VertexNode(u), VertexNode(v), den)
				w.edge(VertexNode(v), VertexNode(u), den)
			})
		},
	}
}

// CliqueSide is the precomputed clique structure reused across the
// Dinkelbach probes of Exact/CoreExact: the (h−1)-cliques Λ of the graph
// and, for each ψ ∈ Λ, its links — the vertices v such that ψ ∪ {v} is
// an h-clique. Each h-clique appears as h links, one per facet. Λ is
// stored flat, in lexicographic order of the member ids.
type CliqueSide struct {
	H int
	// Deg[v] = deg(v,Ψ) in the graph the side was computed on.
	Deg []int64
	// Members holds the h−1 members of each ψ ∈ Λ back to back, in
	// increasing id: ψ_j is Members[j(h−1) : (j+1)(h−1)].
	Members []int32
	// Links[LinkOff[j]:LinkOff[j+1]] are the links of ψ_j, in increasing
	// id; an (h−1)-clique in no h-clique has none.
	LinkOff []int
	Links   []int32
}

// NewCliqueSide enumerates the (h−1)-cliques of g (h ≥ 3) with their
// links. It walks g's sorted adjacency, choosing members in increasing
// id while carrying C, the common neighbours of the members chosen so
// far: the next member comes from the part of C above the last one, and
// C ∩ N(u) is the C of the longer prefix. At depth h−1, C is exactly the
// set of vertices completing ψ into an h-clique — its links — so no
// clique is looked up. Deg[v] counts the links naming v: each h-clique
// holding v has exactly one facet without v.
func NewCliqueSide(g *graph.Graph, h int) *CliqueSide {
	k := h - 1
	cs := &CliqueSide{H: h, Deg: make([]int64, g.N()), LinkOff: []int{0}}
	psi := make([]int32, k)
	bufs := make([][]int32, k+1)
	// rec extends psi[:d], whose common neighbours are c.
	var rec func(d int, c []int32)
	rec = func(d int, c []int32) {
		if d == k {
			cs.Members = append(cs.Members, psi...)
			cs.Links = append(cs.Links, c...)
			cs.LinkOff = append(cs.LinkOff, len(cs.Links))
			for _, v := range c {
				cs.Deg[v]++
			}
			return
		}
		// psi[d-1] is not its own neighbour, so the search lands on the
		// first candidate above it; the last k−d−1 candidates cannot
		// lead a clique that needs k−d−1 more members above them.
		lo, _ := slices.BinarySearch(c, psi[d-1])
		for i := lo; i < len(c)-(k-d-1); i++ {
			u := c[i]
			psi[d] = u
			next := graph.IntersectSorted(c, g.Neighbors(int(u)), bufs[d+1])
			rec(d+1, next)
			bufs[d+1] = next[:0]
		}
	}
	for u := 0; u < g.N(); u++ {
		psi[0] = int32(u)
		rec(1, g.Neighbors(u))
	}
	return cs
}

// NumLambda returns |Λ|, the number of (h−1)-cliques.
func (cs *CliqueSide) NumLambda() int { return len(cs.LinkOff) - 1 }

// NumNodes returns the node count of the network this side produces
// (2 + n + |Λ|), the quantity plotted in Figure 9.
func (cs *CliqueSide) NumNodes(n int) int { return 2 + n + cs.NumLambda() }

// NewCDSSide returns the Algorithm-1 side for h-clique density (h ≥ 3)
// on the n-vertex graph cs was computed from: at α = num/den, every
// capacity scaled by den, s→v with capacity deg(v,Ψ)·den, v→t with
// num·h, v→ψ with den for every link v of (h−1)-clique ψ, and ψ→u with
// an unaffordable capacity (the paper's +∞) for every member u of ψ. f
// is a network arena to recycle (nil for a fresh one).
func NewCDSSide(f *flow.Network, n int, cs *CliqueSide) *Side {
	k := cs.H - 1
	return &Side{
		family: "CDS",
		net:    Net{Network: f, NVertices: n},
		nodes:  cs.NumNodes(n),
		edges:  2*n + len(cs.Members) + len(cs.Links),
		total: func(t *total, num, den int64) {
			for _, d := range cs.Deg {
				t.add(2, d, den) // s→v, plus the d links leaving v
			}
			t.add(int64(n), num, int64(cs.H))
		},
		fill: func(w *arcs, num, den, inf int64) {
			for v := range n {
				w.edge(Source, VertexNode(v), cs.Deg[v]*den)
				w.edge(VertexNode(v), Sink, num*int64(cs.H))
			}
			for j := range cs.NumLambda() {
				for _, u := range cs.Members[j*k : (j+1)*k] {
					w.edge(2+n+j, VertexNode(int(u)), inf)
				}
			}
			for j := range cs.NumLambda() {
				for _, v := range cs.Links[cs.LinkOff[j]:cs.LinkOff[j+1]] {
					w.edge(VertexNode(int(v)), 2+n+j, den)
				}
			}
		},
	}
}

// PatternSide is the precomputed instance structure for PDS networks:
// the pattern instances of the graph, optionally grouped by vertex set
// (construct+, Algorithm 7).
type PatternSide struct {
	P int // |VΨ|
	// Deg[v] = deg(v,Ψ).
	Deg []int64
	// Groups[j] holds the distinct vertices of group j; Count[j] is the
	// number of instances sharing that vertex set (1 per instance when
	// grouping is disabled).
	Groups [][]int32
	Count  []int64
}

// NewPatternSide enumerates the instances of o in g. When grouped is true,
// instances sharing a vertex set collapse into one node (construct+);
// otherwise each instance is its own node (PExact, Algorithm 8).
//
// Grouping sorts each instance's vertex ids, sorts the instances as
// tuples and collapses runs of equal tuples, so it holds for patterns of
// any size; groups come out in lexicographic order of their vertex sets.
func NewPatternSide(g *graph.Graph, o motif.Oracle, grouped bool) *PatternSide {
	p := o.Size()
	ps := &PatternSide{P: p, Deg: make([]int64, g.N())}
	var flat []int32
	motif.ForEachInstance(g, o, func(vs []int32) {
		for _, v := range vs {
			ps.Deg[v]++
		}
		flat = append(flat, vs...)
	})
	m := len(flat) / p
	tuple := func(i int) []int32 { return flat[i*p : (i+1)*p : (i+1)*p] }
	if !grouped {
		ps.Groups, ps.Count = make([][]int32, m), make([]int64, m)
		for i := range m {
			ps.Groups[i], ps.Count[i] = tuple(i), 1
		}
		return ps
	}
	order := make([]int, m)
	for i := range m {
		slices.Sort(tuple(i))
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(tuple(a), tuple(b)) })
	for i, j := range order {
		if i > 0 && slices.Equal(tuple(order[i-1]), tuple(j)) {
			ps.Count[len(ps.Count)-1]++
			continue
		}
		ps.Groups = append(ps.Groups, tuple(j))
		ps.Count = append(ps.Count, 1)
	}
	return ps
}

// NumNodes returns 2 + n + |Λ′|.
func (ps *PatternSide) NumNodes(n int) int { return 2 + n + len(ps.Groups) }

// NewPDSSide returns the PDS side on the n-vertex graph ps was computed
// from: at α = num/den, every capacity scaled by den, s→v with capacity
// deg(v,Ψ)·den and v→t with num·|VΨ| for each vertex, and for each group
// g of |g| instances over a shared vertex set, v→g with capacity |g|·den
// and g→v with |g|·(|VΨ|−1)·den — with |g|=1 this is exactly Algorithm
// 8's per-instance construction. f is a network arena to recycle (nil
// for a fresh one).
func NewPDSSide(f *flow.Network, n int, ps *PatternSide) *Side {
	p := int64(ps.P)
	edges := 2 * n
	for _, vs := range ps.Groups {
		edges += 2 * len(vs)
	}
	return &Side{
		family: "PDS",
		net:    Net{Network: f, NVertices: n},
		nodes:  ps.NumNodes(n),
		edges:  edges,
		total: func(t *total, num, den int64) {
			for _, d := range ps.Deg {
				t.add(d, den)
			}
			t.add(int64(n), num, p)
			for j, vs := range ps.Groups {
				t.add(int64(len(vs)), ps.Count[j], p, den)
			}
		},
		fill: func(w *arcs, num, den, _ int64) {
			for v := range n {
				w.edge(Source, VertexNode(v), ps.Deg[v]*den)
				w.edge(VertexNode(v), Sink, num*p)
			}
			for j, vs := range ps.Groups {
				c := ps.Count[j] * den
				for _, v := range vs {
					w.edge(VertexNode(int(v)), 2+n+j, c)
					w.edge(2+n+j, VertexNode(int(v)), c*(p-1))
				}
			}
		},
	}
}
