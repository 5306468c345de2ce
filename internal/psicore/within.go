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
// motifs whose core numbers a classical core bounds, through
// γ(v) = C(core(v), h−1), so that CoreApp and DecomposeWithin read a
// classical decomposition.
func UsesClassicalCores(o motif.Oracle) bool {
	c, ok := o.(motif.Clique)
	return ok && c.H >= 3
}

// DecomposeWithin is the (k,Ψ)-core decomposition a core-exact search
// needs, computed only on the part of g that can hold the densest
// subgraph. kc is g's classical core decomposition (only Core and KMax
// are read; nil computes one).
//
// It counts the h-cliques of the classical kmax-core K, whose density
// ρ_lo = ρ(K) is a certified lower bound on the optimum ρ*. It then takes
// x as the least d with C(d, h−1) ≥ ⌈ρ_lo⌉, and counts and peels only
// G[X], where X is the classical x-core. Every core number ≥ ⌈ρ_lo⌉ is
// exact:
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
// The densest subgraph has minimum Ψ-degree ≥ ρ* ≥ ρ_lo, so it lies in
// the (⌈ρ_lo⌉,Ψ)-core; a search that locates at a level ≥ Floor never
// reads an inexact core number. The result sets Floor = ⌈ρ_lo⌉, Level = x
// and FloorWitness = K with FloorDensity = ρ(K); Core maps back to g's
// ids with 0 outside X, and Order lists X's peel in g's ids.
//
// It returns nil and no error when the restriction does not pay: Ψ is
// not an h-clique with h ≥ 3, K holds no instance (ρ_lo = 0), or X holds
// more than half of g's adjacency entries. The caller then peels the
// whole graph, which is exact everywhere. Where X holds that much,
// counting G[X] costs about what counting g does, and the whole-graph
// peel leaves a Ψ-degree vector and core numbers that a caller can
// repair across edge mutations (see UpperBound); a restricted one leaves
// neither. The rule is fixed, not settable. The peel polls ctx like
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
	kc    *kcore.Decomposition
	x     int32
	floor int64
	// k is the classical kmax-core K in g's ids and lo its density ρ(K).
	k  []int32
	lo rational.R
	// adj is the number of g's adjacency entries at X's vertices.
	adj int
}

// classicalRestriction returns the restriction of g's (k,Ψ)-core
// decomposition, or nil when Ψ is not an h-clique with h ≥ 3, K holds
// no instance, or X is all of g. kc is g's classical core
// decomposition; nil computes one.
func classicalRestriction(g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition) *restriction {
	if !UsesClassicalCores(o) || g.N() == 0 {
		return nil
	}
	if kc == nil {
		kc = kcore.Decompose(g)
	}
	k := g.InducedKeep(func(v int) bool { return kc.Core[v] == kc.KMax })
	muK := motif.Count(o, k.Graph)
	if muK == 0 {
		return nil
	}
	r := &restriction{kc: kc, k: k.Orig, lo: rational.New(muK, int64(k.N()))}
	r.floor = r.lo.Ceil()
	// K lies in the classical kmax-core, so x never needs to exceed kmax;
	// capping it there only keeps more of g.
	h1 := int64(o.Size() - 1)
	for r.x < kc.KMax && combin.Binom(int64(r.x), h1) < r.floor {
		r.x++
	}
	kept := 0
	for v, c := range kc.Core {
		if c >= r.x {
			kept++
			r.adj += g.Degree(v)
		}
	}
	if kept == g.N() {
		return nil
	}
	return r
}

// decompose counts and peels G[X] and maps the result back to g's ids.
func (r *restriction) decompose(ctx context.Context, g *graph.Graph, o motif.Oracle, workers int) (*Decomposition, error) {
	sub := g.InducedKeep(func(v int) bool { return r.kc.Core[v] >= r.x })
	total, deg := countDegrees(sub.Graph, o, workers)
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
