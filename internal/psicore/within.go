package psicore

import (
	"context"

	"repro/internal/combin"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/rational"
)

// UsesClassicalCores reports whether Ψ is an h-clique with h ≥ 3: the
// motifs whose CoreApp γ bounds, γ(v) = C(core(v), h−1), read a
// classical decomposition. (For edges γ is the degree; DecomposeWithin
// still restricts an edge decomposition, but finds the cores it needs
// itself.)
func UsesClassicalCores(o motif.Oracle) bool {
	c, ok := o.(motif.Clique)
	return ok && c.H >= 3
}

// DecomposeWithin is the (k,Ψ)-core decomposition a core-exact search
// needs, computed only on the part of g that can hold the densest
// subgraph, for Ψ an h-clique with any h ≥ 2. kc is g's classical core
// decomposition when the caller holds one (only Core and KMax are
// read); nil finds the cores it needs from degree-threshold candidate
// sets instead of peeling all of g.
//
// It counts the h-cliques of the classical kmax-core K, whose density
// ρ_lo = ρ(K) is a certified lower bound on the optimum ρ*. It then takes
// x as the least d with C(d, h−1) ≥ ⌈ρ_lo⌉ (for edges C(d, 1) = d, so
// x = ⌈ρ_lo⌉), and counts and peels only G[X], where X is the classical
// x-core. Every core number ≥ ⌈ρ_lo⌉ is exact:
//
//   - A (k,Ψ)-core H with k ≥ 1 lies inside the classical x_k-core, x_k
//     the least d with C(d, h−1) ≥ k. Each vertex v of H lies in at least
//     k h-cliques of H and in at most C(deg_H(v), h−1), so H has minimum
//     degree ≥ x_k.
//   - For k ≥ ⌈ρ_lo⌉, x_k ≥ x, so the (k,Ψ)-core of G lies in X. It is a
//     subgraph of G[X] of minimum Ψ-degree ≥ k, and the (k,Ψ)-core of
//     G[X] is one of G, so the two cores are equal.
//   - Hence a vertex's core number in G[X] equals its core number in G
//     whenever either is ≥ ⌈ρ_lo⌉, and both are below it otherwise.
//     Every residual of the peel is an induced subgraph of G, so each
//     tracked density is that of a real subgraph.
//
// Without kc, K and X come from the candidate sets C_t = {v : deg(v) ≥ t}.
// The classical k-core of G lies in C_t for every k ≥ t, and it is the
// k-core of G[C_t]: so every core number ≥ t agrees between G[C_t] and
// G, and kmax(G[C_t]) ≥ t exactly when kmax(G) ≥ t. The search starts at
// the largest t with at least t+1 vertices of degree ≥ t, which bounds
// kmax from above. When kmax(G[C_t]) < t, kmax(G) lies in
// [kmax(G[C_t]), t), and the retry at t = kmax(G[C_t]) finds it. X comes
// from the same G[C_t] when x ≥ t and from G[C_x] otherwise. One degree
// pass gives every candidate set's adjacency volume; a set that holds
// more than half of g's adjacency entries is not worth extracting, and
// the classical cores then come from one peel of all of g. Either way K,
// x and X are the same sets.
//
// The densest subgraph has minimum Ψ-degree ≥ ρ* ≥ ρ_lo, so it lies in
// the (⌈ρ_lo⌉,Ψ)-core; a search that locates at a level ≥ Floor never
// reads an inexact core number. The result sets Floor = ⌈ρ_lo⌉, Level = x
// and FloorWitness = K with FloorDensity = ρ(K); Core maps back to g's
// ids with 0 outside X, and Order lists X's peel in g's ids.
//
// It returns nil and no error when the restriction does not pay: Ψ is
// not an h-clique, K holds no instance (ρ_lo = 0), or X holds more than
// half of g's adjacency entries. The caller then peels the whole graph,
// which is exact everywhere. Where X holds that much, counting and
// peeling G[X] cost about what they cost on g (for edges the count is
// the degree vector, and the saving is the peel), and the whole-graph
// peel leaves a Ψ-degree vector and core numbers that a caller can
// repair across edge mutations (see UpperBound); a restricted one leaves
// neither. Both rules are fixed, not settable. The peel polls ctx like
// DecomposeContext's.
func DecomposeWithin(ctx context.Context, g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition, workers int) (*Decomposition, error) {
	r := classicalRestriction(g, o, kc)
	if r == nil || r.adj > g.M() {
		return nil, nil
	}
	return r.decompose(ctx, g, o, workers)
}

// restriction is the classical x-core X that a restricted decomposition
// counts and peels.
type restriction struct {
	// cores holds X: X is the vertex set of cores.sub at core ≥ x.
	cores *classicalCores
	x     int32
	floor int64
	// k is the classical kmax-core K in g's ids and lo its density ρ(K).
	k  []int32
	lo rational.R
	// adj is the number of g's adjacency entries at X's vertices.
	adj int
}

// classicalRestriction returns the restriction of g's (k,Ψ)-core
// decomposition, or nil when Ψ is not an h-clique, K holds no instance,
// or X is all of g. kc is g's classical core
// decomposition; nil searches the degree-threshold candidate sets.
func classicalRestriction(g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition) *restriction {
	if _, ok := o.(motif.Clique); !ok || g.M() == 0 {
		return nil
	}
	var cand *candidates
	top := &classicalCores{sub: g, kc: kc}
	if kc == nil {
		cand = newCandidates(g)
		top = cand.kmaxCores()
	}
	kmax := top.kc.KMax
	k := top.keep(kmax)
	muK := motif.Count(o, k.Graph)
	if muK == 0 {
		return nil
	}
	r := &restriction{k: k.Orig, lo: rational.New(muK, int64(k.N()))}
	r.floor = r.lo.Ceil()
	// K lies in the classical kmax-core, so x never needs to exceed kmax;
	// capping it there only keeps more of g.
	h1 := int64(o.Size() - 1)
	for r.x < kmax && combin.Binom(int64(r.x), h1) < r.floor {
		r.x++
	}
	r.cores = top
	if r.x < top.exact {
		r.cores = cand.at(r.x)
	}
	kept := 0
	for v, c := range r.cores.kc.Core {
		if c >= r.x {
			kept++
			r.adj += g.Degree(r.cores.orig(v))
		}
	}
	if kept == g.N() {
		return nil
	}
	return r
}

// decompose counts and peels G[X] and maps the result back to g's ids.
func (r *restriction) decompose(ctx context.Context, g *graph.Graph, o motif.Oracle, workers int) (*Decomposition, error) {
	sub := r.cores.keep(r.x)
	total, deg := motif.CountAndDegreesWorkers(o, sub.Graph, workers)
	d, err := peel(ctx, sub.Graph, o, total, deg)
	if err != nil {
		return nil, err
	}
	core := make([]int64, g.N())
	for lv, c := range d.Core {
		core[sub.Orig[lv]] = c
	}
	for i, lv := range d.Order {
		d.Order[i] = sub.Orig[lv]
	}
	d.Core = core
	d.Floor, d.Level = r.floor, r.x
	d.FloorWitness, d.FloorDensity = r.k, r.lo
	return d, nil
}

// classicalCores is the classical core decomposition kc of sub, an
// induced subgraph of g (ids lists its vertices in g's ids; nil when sub
// is g itself), whose core numbers ≥ exact equal g's.
type classicalCores struct {
	sub   *graph.Graph
	ids   []int32
	kc    *kcore.Decomposition
	exact int32
}

// orig returns the g id of sub's vertex v.
func (c *classicalCores) orig(v int) int {
	if c.ids == nil {
		return v
	}
	return int(c.ids[v])
}

// keep returns g's classical k-core, k ≥ c.exact, with Orig in g's ids.
// Inducing from sub keeps g's vertex and neighbour order, so the result
// equals g.InducedKeep over the same set.
func (c *classicalCores) keep(k int32) *graph.Subgraph {
	s := c.sub.InducedKeep(func(v int) bool { return c.kc.Core[v] >= k })
	if c.ids != nil {
		for i, v := range s.Orig {
			s.Orig[i] = c.ids[v]
		}
	}
	return s
}

// candidates locates g's high classical cores in the candidate sets
// C_t = {v : deg(v) ≥ t} (see DecomposeWithin).
type candidates struct {
	g   *graph.Graph
	deg []int32
	// size[t] = |C_t| and vol[t] is the number of adjacency entries at
	// C_t's vertices, for t = 0..MaxDegree+1.
	size, vol []int
}

// newCandidates takes every candidate set's size and volume from one
// degree pass.
func newCandidates(g *graph.Graph) *candidates {
	c := &candidates{g: g, deg: make([]int32, g.N())}
	maxDeg := int32(0)
	for v := range c.deg {
		c.deg[v] = int32(g.Degree(v))
		maxDeg = max(maxDeg, c.deg[v])
	}
	c.size, c.vol = make([]int, maxDeg+2), make([]int, maxDeg+2)
	for _, d := range c.deg {
		c.size[d]++
		c.vol[d] += int(d)
	}
	for t := maxDeg; t >= 0; t-- {
		c.size[t] += c.size[t+1]
		c.vol[t] += c.vol[t+1]
	}
	return c
}

// kmaxCores returns classical cores that are exact at g's kmax.
func (c *candidates) kmaxCores() *classicalCores {
	t := c.bound()
	for {
		cs := c.at(t)
		if cs.kc.KMax >= cs.exact {
			return cs
		}
		// kmax(G) lies in [kmax(G[C_t]), t): the G[C_t] of the new t
		// holds g's kmax-core, so this loop runs at most twice.
		t = cs.kc.KMax
	}
}

// bound returns the largest t with at least t+1 vertices of degree ≥ t.
// A k-core has k+1 vertices of degree ≥ k, so g's kmax is at most t.
func (c *candidates) bound() int32 {
	t := len(c.size) - 2
	for t+1 > c.size[t] {
		t--
	}
	return int32(t)
}

// at returns classical cores exact at every level ≥ t: those of G[C_t],
// or of all of g when C_t holds more than half of g's adjacency entries.
func (c *candidates) at(t int32) *classicalCores {
	if c.vol[t] > c.g.M() {
		return &classicalCores{sub: c.g, kc: kcore.Decompose(c.g)}
	}
	vs := make([]int32, 0, c.size[t])
	for v, d := range c.deg {
		if d >= t {
			vs = append(vs, int32(v))
		}
	}
	s := c.g.InducedSorted(vs)
	return &classicalCores{sub: s.Graph, ids: s.Orig, kc: kcore.Decompose(s.Graph), exact: t}
}
