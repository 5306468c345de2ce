package psicore

import (
	"sort"

	"repro/internal/combin"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/motif"
)

// CoreAppResult is the output of the top-down kmax-core computation.
type CoreAppResult struct {
	// Vertices is the (kmax,Ψ)-core vertex set in the original graph's ids.
	Vertices []int32
	// KMax is the maximum Ψ-core number.
	KMax int64
	// Rounds is the number of doubling iterations performed.
	Rounds int
}

// initialWindow is the starting size of the high-degree vertex window W.
const initialWindow = 64

// CoreApp extracts the (kmax,Ψ)-core without decomposing all cores
// (Algorithm 6). Vertices are sorted by an upper bound γ(v,Ψ) on their
// Ψ-core number; a window W of the top vertices is repeatedly doubled, the
// core of G[W] computed, and the loop stops once every vertex outside W
// has γ(v,Ψ) < kmax, which certifies that the (kmax,Ψ)-core of G[W]
// equals that of G.
//
// For h-cliques, γ(v,Ψ) = C(x, h−1) with x the classical core number of v.
// It bounds v's Ψ-core number c: the (c,Ψ)-core H holding v has some
// vertex u of minimum degree d, u lies in at most C(d, h−1) h-cliques of
// H, so c ≤ C(d, h−1); and H is a subgraph of minimum degree d holding v,
// so x ≥ d. For
// non-clique patterns γ is the exact pattern degree, computed with the
// Appendix-D fast counters where available. kc is g's classical core
// decomposition when the caller holds one; it is read only for h-cliques
// with h ≥ 3, and nil computes it then.
func CoreApp(g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition) *CoreAppResult {
	n := g.N()
	if n == 0 {
		return &CoreAppResult{}
	}
	gamma := gammaBounds(g, o, kc)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return gamma[order[i]] > gamma[order[j]] })

	var (
		kmax   int64
		best   []int32
		rounds int
		w      = initialWindow
	)
	if w > n {
		w = n
	}
	for {
		rounds++
		sub := g.Induced(order[:w])
		subKMax, core := boundedKMaxCore(sub.Graph, o, kmax)
		if subKMax >= kmax && core != nil {
			kmax = subKMax
			best = best[:0]
			for _, lv := range core {
				best = append(best, sub.Orig[lv])
			}
		}
		if w == n {
			break
		}
		// Stopping criterion (Algorithm 6 line 4): every vertex outside W
		// has γ < kmax, hence Ψ-core number < kmax.
		if kmax > 0 && gamma[order[w]] < kmax {
			break
		}
		w *= 2
		if w > n {
			w = n
		}
	}
	return &CoreAppResult{Vertices: best, KMax: kmax, Rounds: rounds}
}

// gammaBounds returns the per-vertex upper bound γ(v,Ψ) on Ψ-core numbers.
func gammaBounds(g *graph.Graph, o motif.Oracle, kc *kcore.Decomposition) []int64 {
	if UsesClassicalCores(o) {
		if kc == nil {
			kc = kcore.Decompose(g)
		}
		gamma := make([]int64, g.N())
		for v := range gamma {
			gamma[v] = combin.Binom(int64(kc.Core[v]), int64(o.Size()-1))
		}
		return gamma
	}
	if c, ok := o.(motif.Clique); ok && c.H == 2 {
		// For edges the degree itself is the cheap upper bound on the core
		// number; running a core decomposition here would already be the
		// bottom-up answer and defeat the top-down strategy.
		gamma := make([]int64, g.N())
		for v := range gamma {
			gamma[v] = int64(g.Degree(v))
		}
		return gamma
	}
	_, deg := o.CountAndDegrees(g)
	return deg
}

// boundedKMaxCore computes the kmax-core of g w.r.t. o, short-circuiting
// the peel below level kLow: vertices whose degree falls under
// max(kLow+1, 1) are bulk-removed without fine-grained ordering (the
// "k ← max{kl, kmax+1}" skip of Algorithm 6). It returns the core's kmax
// and local vertex ids, or (kLow, nil) if no subgraph with min Ψ-degree
// > kLow survives.
func boundedKMaxCore(g *graph.Graph, o motif.Oracle, kLow int64) (int64, []int32) {
	n := g.N()
	st := motif.NewState(g)
	_, deg := o.CountAndDegrees(g)

	// Bulk phase: cascade-remove everything with degree < threshold. If
	// kLow is 0 this is a no-op and the bucket phase does all the work.
	if kLow > 0 {
		queue := make([]int32, 0, n)
		queued := make([]bool, n)
		for v := 0; v < n; v++ {
			if deg[v] < kLow {
				queue = append(queue, int32(v))
				queued[v] = true
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if !st.Alive[v] {
				continue
			}
			if deg[v] != 0 {
				o.OnRemove(st, int(v), func(u int, delta int64) {
					deg[u] -= delta
					if deg[u] < kLow && !queued[u] {
						queued[u] = true
						queue = append(queue, int32(u))
					}
				})
			}
			st.Remove(int(v))
		}
		if st.NAlive == 0 {
			return kLow, nil
		}
	}

	// Bucket phase: finish the decomposition on the survivors to find the
	// top core.
	survivors := make([]int32, 0, st.NAlive)
	for v := 0; v < n; v++ {
		if st.Alive[v] {
			survivors = append(survivors, int32(v))
		}
	}
	sub := g.Induced(survivors)
	sd := Decompose(sub.Graph, o)
	if sd.KMax < kLow {
		return kLow, nil
	}
	var core []int32
	for lv, c := range sd.Core {
		if c >= sd.KMax {
			core = append(core, sub.Orig[lv])
		}
	}
	return sd.KMax, core
}
