// Package psicore implements (k,Ψ)-core decomposition (Algorithm 3 of the
// paper, generalized to pattern cores per Section 5.4), the top-down
// CoreApp kmax-core extraction (Algorithm 6), and the two baselines the
// paper compares against: nucleus-style local decomposition (AND) and an
// in-memory EMcore adaptation.
package psicore

import (
	"context"

	"repro/internal/bucketq"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/rational"
)

// Decomposition is the result of a (k,Ψ)-core decomposition.
type Decomposition struct {
	// Core[v] is the clique-core (pattern-core) number of v.
	Core []int64
	// KMax is the maximum core number.
	KMax int64
	// Order is the peel order; Order[i:] is the residual graph after i
	// removals.
	Order []int32
	// TotalInstances is µ(G,Ψ).
	TotalInstances int64
	// BestResidual is the highest Ψ-density among all residual subgraphs
	// seen during peeling (including the whole graph); BestResidualStart
	// is the index i such that Order[i:] attains it. This implements the
	// ρ′ tracking used by CoreExact's Pruning1 and is exactly the PeelApp
	// candidate set.
	BestResidual      rational.R
	BestResidualStart int
	// BestResidualMu is µ of the best residual subgraph.
	BestResidualMu int64
	// Floor is 0 when every core number is exact. DecomposeWithin sets it
	// to ⌈ρ(K)⌉ ≥ 1 when it peels only the classical Level-core X: core
	// numbers ≥ Floor are exact, smaller ones are not (vertices outside X
	// read 0), and Order, TotalInstances and the best residual describe
	// G[X]. Only a core-exact search may read such a decomposition, and
	// only at core levels ≥ Floor.
	Floor int64
	Level int32
	// FloorWitness is the classical kmax-core K a restricted peel counted
	// and FloorDensity its exact density ρ(K): the certified lower bound
	// the restriction rests on.
	FloorWitness []int32
	FloorDensity rational.R
}

// Decompose peels g with respect to the motif oracle o and returns core
// numbers, peel order and residual-density tracking. It is Algorithm 3
// with the bookkeeping CoreExact and PeelApp need layered on top.
func Decompose(g *graph.Graph, o motif.Oracle) *Decomposition {
	d, _ := DecomposeContext(context.Background(), g, o, 1)
	return d
}

// DecomposeWorkers is Decompose with the clique-degree seeding (the
// CountAndDegrees call that initializes the bucket queue) computed on
// workers goroutines when the oracle supports it. The peel itself is
// inherently sequential; the seeding is the enumeration-heavy prefix.
// Core numbers are identical to Decompose's for any workers value.
func DecomposeWorkers(g *graph.Graph, o motif.Oracle, workers int) *Decomposition {
	d, _ := DecomposeContext(context.Background(), g, o, workers)
	return d
}

// ctxCheckStride is how many peel steps run between context polls: cheap
// enough to be invisible, frequent enough that cancellation is prompt.
const ctxCheckStride = 1024

// DecomposeContext is DecomposeWorkers bounded by ctx: the peel loop
// polls ctx every ctxCheckStride removals and returns (nil, ctx.Err())
// once it is cancelled. The seeding count itself is not interruptible.
func DecomposeContext(ctx context.Context, g *graph.Graph, o motif.Oracle, workers int) (*Decomposition, error) {
	total, deg := motif.CountAndDegreesWorkers(o, g, workers)
	return peel(ctx, g, o, total, deg)
}

// DecomposeSeeded is DecomposeContext with the Ψ-degree seeding supplied
// by the caller instead of recomputed: total and deg must be exactly what
// o.CountAndDegrees(g) would return — e.g. a degree vector maintained
// incrementally across edge mutations (see dsd.Solver). The peel consumes
// identical inputs, so the result is bit-identical to DecomposeContext's,
// while the enumeration-heavy counting prefix — the dominant cost for
// clique motifs — is skipped entirely. deg is only read.
func DecomposeSeeded(ctx context.Context, g *graph.Graph, o motif.Oracle, total int64, deg []int64) (*Decomposition, error) {
	return peel(ctx, g, o, total, append([]int64(nil), deg...))
}

// peel is the shared Algorithm-3 peel loop: it takes ownership of deg
// and runs the removal order, core-number assignment, and residual-density
// tracking. The bucket queue copies deg, so deg itself stays the exact
// residual Ψ-degree of every vertex: dec lowers it by each destroyed
// instance, and the vertex's key is max(deg, cur).
//
// A removal destroys many instances, and a vertex may lose several of
// them; the queue moves each vertex once per step, not once per instance.
// Algorithm 3 as written lowers the key after every decrement: with the
// key at max(deg, cur), a decrement lowers it exactly when deg was above
// cur before it, and the vertex then leaves its bucket for the front of
// bucket max(deg, cur). After the step, a bucket therefore holds the
// vertices whose last lowering decrement put them there, latest first,
// ahead of the members that never moved, in their old order. dec only
// sums the decrements and logs the lowering ones. After OnRemove returns,
// each vertex whose key fell moves once, to max(deg, cur), in the order
// of its last lowering decrement. The buckets are last-in first-out, so
// these moves rebuild the same buckets in the same order, and every later
// pop, tie and core number is the one per-decrement moves give.
//
// Say z vertices have Ψ-degree 0. The queue pops them first, from
// bucket 0 in descending id order (equal keys leave last-in first-out),
// and each destroys nothing: no degree moves, cur stays 0, and µ over the
// shrinking residual only rises, so the best residual becomes µ/(n−z) at
// start z whenever µ > 0. When compactSupport says it pays, the peel runs
// in two phases instead: the first emits exactly that prefix, with core
// 0, and no queue; the second peels the Ψ-support — the subgraph induced
// by the other vertices, which holds every instance — compacted into a
// graph of its own.
//
// Compacting costs one copy of the support's adjacency, and saves the
// oracle, the residual-degree state and the queue from ever touching the
// rest. So it is done only when the instance-free vertices hold at least
// half of all adjacency entries. It never is for edge density, whose
// instance-free vertices are isolated; there, and whenever the rule
// fails, one queue peels all of g.
//
// The compacted peel keeps the order bit for bit. Local ids follow
// original ids, so every queue insertion and every oracle enumeration
// (neighbour lists, candidate intersections, canonical-instance tests)
// sees the same relative order, ties included. Where the pattern matcher
// picks its candidate list by degree, the support may change which list
// it scans, but not the ascending order its matches come out in. And the
// support after phase one is the residual graph the plain peel has then.
func peel(ctx context.Context, g *graph.Graph, o motif.Oracle, total int64, deg []int64) (*Decomposition, error) {
	n := g.N()
	d := &Decomposition{
		Core:           make([]int64, n),
		Order:          make([]int32, 0, n),
		TotalInstances: total,
		BestResidual:   rational.New(total, int64(n)),
		BestResidualMu: total,
	}
	h, orig := g, []int32(nil) // the graph the queue peels; its ids in g, if not g
	if compactSupport(g, deg) {
		for v := n - 1; v >= 0; v-- {
			if deg[v] == 0 {
				d.Order = append(d.Order, int32(v)) // Core[v] is 0
			}
		}
		if total > 0 {
			d.BestResidual = rational.New(total, int64(n-len(d.Order)))
			d.BestResidualStart = len(d.Order)
		}
		sub := g.InducedKeep(func(v int) bool { return deg[v] != 0 })
		h, orig = sub.Graph, sub.Orig
		local := make([]int64, len(orig))
		for i, v := range orig {
			local[i] = deg[v]
		}
		deg = local
	}
	st := motif.NewState(h)
	q := bucketq.New(deg)
	mu := total
	alive := h.N()
	cur := int64(0)
	// An edge removal lowers each neighbour once, so the queue moves a
	// vertex at each decrement. Larger motifs log the step's key-lowering
	// decrements in moves, last[u] indexing u's latest entry.
	var moves, last []int32
	dec := func(u int, delta int64) {
		deg[u] -= delta
		q.DecreaseTo(u, deg[u], cur)
	}
	if o.Size() > 2 {
		last = make([]int32, h.N())
		dec = func(u int, delta int64) {
			if delta > 0 && deg[u] > cur {
				last[u] = int32(len(moves))
				moves = append(moves, int32(u))
			}
			deg[u] -= delta
		}
	}
	for steps := 0; ; steps++ {
		if steps%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v, k, ok := q.PopMin()
		if !ok {
			break
		}
		if k > cur {
			cur = k
		}
		id := int32(v)
		if orig != nil {
			id = orig[v]
		}
		d.Core[id] = cur
		if cur > d.KMax {
			d.KMax = cur
		}
		d.Order = append(d.Order, id)
		// A vertex in no live instance is removed without asking the
		// oracle: OnRemove would destroy nothing and lower no degree, so
		// the skip leaves every field of the result unchanged. Most
		// vertices of a sparse graph lie in no triangle at all.
		if deg[v] != 0 {
			mu -= o.OnRemove(st, v, dec)
			for i, u := range moves {
				if last[u] == int32(i) {
					q.DecreaseTo(int(u), deg[u], cur)
				}
			}
			moves = moves[:0]
		}
		st.Remove(v)
		alive--
		if alive > 0 {
			if r := rational.New(mu, int64(alive)); r.Greater(d.BestResidual) {
				d.BestResidual = r
				d.BestResidualMu = mu
				d.BestResidualStart = len(d.Order)
			}
		}
	}
	return d, nil
}

// compactSupport is peel's fixed compaction rule: the vertices of
// Ψ-degree 0 hold at least half of g's 2m adjacency entries, and some at
// all. It is not settable.
func compactSupport(g *graph.Graph, deg []int64) bool {
	free := 0
	for v, dv := range deg {
		if dv == 0 {
			free += g.Degree(v)
		}
	}
	return free > 0 && free >= g.M()
}

// CoreVertices returns the vertices of the (k,Ψ)-core: those with core
// number ≥ k.
func (d *Decomposition) CoreVertices(k int64) []int32 {
	var vs []int32
	for v, c := range d.Core {
		if c >= k {
			vs = append(vs, int32(v))
		}
	}
	return vs
}

// KMaxCoreVertices returns the vertices of the (kmax,Ψ)-core.
func (d *Decomposition) KMaxCoreVertices() []int32 { return d.CoreVertices(d.KMax) }

// BestResidualVertices returns the vertex set of the densest residual
// subgraph observed during peeling (the PeelApp answer).
func (d *Decomposition) BestResidualVertices() []int32 {
	return append([]int32(nil), d.Order[d.BestResidualStart:]...)
}
