package psicore

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
)

// This file implements the two baselines the paper's evaluation compares
// core computation against: a nucleus-style local decomposition (the AND
// algorithm of Sariyüce, Seshadhri & Pinar, run on a single core, Section 8
// "Nucleus") and an in-memory adaptation of EMcore (Cheng et al., ICDE'11)
// that stops once the kmax-core is found (Table 4).

// NucleusDecompose computes Ψ-core numbers with the local (AND-style)
// algorithm: every vertex starts at its Ψ-degree and repeatedly lowers its
// estimate to the h-index of its instances' minimum estimates until a
// fixpoint. The fixpoint equals the peeling core numbers; the algorithm
// trades the global ordering of Algorithm 3 for local iterations (and
// materializes all instances, which is why the paper finds it slower).
func NucleusDecompose(g *graph.Graph, o motif.Oracle) *Decomposition {
	n := g.N()
	// Materialize instances: flat member array plus per-vertex incidence.
	var members []int32 // p members per instance
	p := o.Size()
	collect := func(vs []int32) {
		members = append(members, vs...)
	}
	motif.ForEachInstance(g, o, collect)
	numInst := len(members) / p
	incidence := make([][]int32, n)
	for i := 0; i < numInst; i++ {
		for _, v := range members[i*p : (i+1)*p] {
			incidence[v] = append(incidence[v], int32(i))
		}
	}

	tau := make([]int64, n)
	for v := 0; v < n; v++ {
		tau[v] = int64(len(incidence[v]))
	}
	changed := true
	vals := make([]int64, 0, 64)
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			if len(incidence[v]) == 0 {
				continue
			}
			vals = vals[:0]
			for _, inst := range incidence[v] {
				m := int64(1<<62 - 1)
				for _, u := range members[int(inst)*p : (int(inst)+1)*p] {
					if int(u) != v && tau[u] < m {
						m = tau[u]
					}
				}
				vals = append(vals, m)
			}
			h := hIndex(vals)
			if h < tau[v] {
				tau[v] = h
				changed = true
			}
		}
	}
	d := &Decomposition{Core: tau}
	for _, t := range tau {
		if t > d.KMax {
			d.KMax = t
		}
	}
	return d
}

// hIndex returns the largest k such that at least k values are ≥ k.
func hIndex(vals []int64) int64 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	var h int64
	for i, v := range vals {
		if v >= int64(i+1) {
			h = int64(i + 1)
		} else {
			break
		}
	}
	return h
}

// EMcore computes the classical (edge) kmax-core with a top-down,
// block-by-degree strategy adapted from EMcore to main memory: vertices
// are added in blocks of halving degree thresholds and the full core
// decomposition of the accumulated subgraph is recomputed per round,
// stopping once no remaining vertex's degree can reach kmax. Unlike
// CoreApp it re-decomposes every core of each block union (difference (2)
// in Section 6.2), which is what Table 4 measures.
func EMcore(g *graph.Graph) (vertices []int32, kmax int32) {
	n := g.N()
	if n == 0 {
		return nil, 0
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return g.Degree(int(order[i])) > g.Degree(int(order[j])) })
	threshold := g.MaxDegree() / 2
	w := 0
	for {
		for w < n && g.Degree(int(order[w])) >= threshold {
			w++
		}
		if w == 0 { // all degrees below threshold; halve and retry
			if threshold == 0 {
				return nil, 0
			}
			threshold /= 2
			continue
		}
		sub := g.Induced(order[:w])
		d := kcore.Decompose(sub.Graph)
		if d.KMax >= kmax {
			kmax = d.KMax
			vertices = vertices[:0]
			for lv, c := range d.Core {
				if c >= d.KMax {
					vertices = append(vertices, sub.Orig[lv])
				}
			}
		}
		if w == n || int32(g.Degree(int(order[w]))) < kmax {
			return vertices, kmax
		}
		threshold /= 2
		if threshold < 0 {
			threshold = 0
		}
	}
}
