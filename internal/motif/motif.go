// Package motif presents h-cliques and general patterns behind one Oracle
// interface so the (k,Ψ)-core peeling engine, the approximation algorithms
// and the densest-subgraph drivers are written once. Oracles are stateless
// descriptions of Ψ; per-run mutable peeling state lives in State.
package motif

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/combin"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Oracle answers the counting questions the algorithms need about a fixed
// motif Ψ (an h-clique or a general pattern).
type Oracle interface {
	// Name is the display name of Ψ.
	Name() string
	// Size returns |VΨ|.
	Size() int
	// CountAndDegrees returns µ(g,Ψ) and the per-vertex degrees deg(v,Ψ).
	CountAndDegrees(g *graph.Graph) (int64, []int64)
	// OnRemove accounts for the removal of the (still-alive) vertex v from
	// the peeling state: it returns the number of instances destroyed (v's
	// current degree) and calls dec(u, delta) for every other alive vertex
	// u that loses delta instances. Callers must invoke st.Remove(v)
	// afterwards.
	OnRemove(st *State, v int, dec func(u int, delta int64)) int64
}

// ParallelCounter is the optional fast path of an Oracle whose
// CountAndDegrees has a shared-memory parallel form. Implementations must
// return exactly the same values as CountAndDegrees; callers fall back to
// the serial count when the oracle does not implement it or workers ≤ 1.
type ParallelCounter interface {
	// CountAndDegreesParallel is CountAndDegrees over the given number of
	// workers (values ≤ 0 mean GOMAXPROCS).
	CountAndDegreesParallel(g *graph.Graph, workers int) (int64, []int64)
}

// State is the residual graph of a peeling run: the alive set plus the
// alive-restricted classical degrees that the Appendix-D fast counters
// need.
type State struct {
	G      *graph.Graph
	Alive  []bool
	RDeg   []int32 // number of alive neighbors
	NAlive int

	// rows and live are G's clique bit rows and the alive set as a bit
	// mask, built by the first clique removal when clique.RowsPay(G)
	// holds; rowsTried records that the rule was read.
	rows      *clique.Rows
	live      []uint64
	rowsTried bool
}

// NewState returns the all-alive state for g.
func NewState(g *graph.Graph) *State {
	st := &State{
		G:      g,
		Alive:  make([]bool, g.N()),
		RDeg:   make([]int32, g.N()),
		NAlive: g.N(),
	}
	for v := 0; v < g.N(); v++ {
		st.Alive[v] = true
		st.RDeg[v] = int32(g.Degree(v))
	}
	return st
}

// Remove marks v dead and updates neighbors' residual degrees.
func (st *State) Remove(v int) {
	if !st.Alive[v] {
		return
	}
	st.Alive[v] = false
	st.NAlive--
	if st.live != nil {
		clique.Kill(st.live, v)
	}
	for _, w := range st.G.Neighbors(v) {
		if st.Alive[w] {
			st.RDeg[w]--
		}
	}
}

// For returns the most specialized oracle for p: the dedicated clique
// enumerator for complete patterns, the Appendix-D fast counters for
// stars and the diamond (4-cycle), and the generic subgraph-isomorphism
// oracle otherwise.
func For(p *pattern.Pattern) Oracle {
	if p.IsClique() {
		return Clique{H: p.Size()}
	}
	if _, tails, ok := p.IsStar(); ok {
		return Star{X: tails}
	}
	if p.IsCycle4() {
		return Diamond{}
	}
	return Generic{P: p}
}

// Clique is the oracle for h-cliques (h ≥ 2).
type Clique struct{ H int }

// Name implements Oracle.
func (c Clique) Name() string {
	switch c.H {
	case 2:
		return "edge"
	case 3:
		return "triangle"
	}
	return fmt.Sprintf("%d-clique", c.H)
}

// Size implements Oracle.
func (c Clique) Size() int { return c.H }

// CountAndDegrees implements Oracle using the kClist enumerator.
func (c Clique) CountAndDegrees(g *graph.Graph) (int64, []int64) {
	return c.CountAndDegreesParallel(g, 1)
}

// CountAndDegreesParallel implements ParallelCounter with the striped
// kClist enumerator, or with the bit-row walk when clique.RowsPay(g)
// holds: every h-clique contributes h to the degree sum, so µ is
// recovered from the degrees without a second pass.
func (c Clique) CountAndDegreesParallel(g *graph.Graph, workers int) (int64, []int64) {
	if c.H == 2 {
		deg := make([]int64, g.N())
		for v := 0; v < g.N(); v++ {
			deg[v] = int64(g.Degree(v))
		}
		return int64(g.M()), deg
	}
	var deg []int64
	if clique.RowsPay(g) {
		deg = clique.NewRows(g).DegreesParallel(c.H, workers)
	} else {
		deg = clique.NewLister(g).DegreesParallel(c.H, workers)
	}
	var sum int64
	for _, d := range deg {
		sum += d
	}
	if c.H > 0 {
		sum /= int64(c.H)
	}
	return sum, deg
}

// OnRemove implements Oracle by enumerating the cliques that contain v
// among alive vertices: on G's bit rows when clique.RowsPay(G) holds,
// on its neighbour lists otherwise. Both list the cliques in the same
// order.
func (c Clique) OnRemove(st *State, v int, dec func(u int, delta int64)) int64 {
	if c.H == 2 {
		var destroyed int64
		for _, w := range st.G.Neighbors(v) {
			if st.Alive[w] {
				destroyed++
				dec(int(w), 1)
			}
		}
		return destroyed
	}
	var destroyed int64
	fn := func(others []int32) {
		destroyed++
		for _, u := range others {
			dec(int(u), 1)
		}
	}
	if rows := st.cliqueRows(); rows != nil {
		rows.ForEachContaining(v, c.H, st.live, fn)
	} else {
		clique.ForEachContaining(st.G, v, c.H, st.Alive, fn)
	}
	return destroyed
}

// cliqueRows returns G's bit rows, building them and the live mask on
// the first call, or nil when clique.RowsPay(G) fails.
func (st *State) cliqueRows() *clique.Rows {
	if !st.rowsTried {
		st.rowsTried = true
		if clique.RowsPay(st.G) {
			st.rows = clique.NewRows(st.G)
			st.live = clique.NewAlive(st.G.N())
			for v, a := range st.Alive {
				if !a {
					clique.Kill(st.live, v)
				}
			}
		}
	}
	return st.rows
}

// Star is the oracle for x-star patterns with the closed-form degree and
// decrement formulas of Appendix D §1 (O(d²) per removal instead of
// instance enumeration).
type Star struct{ X int }

// Name implements Oracle.
func (s Star) Name() string { return fmt.Sprintf("%d-star", s.X) }

// Size implements Oracle.
func (s Star) Size() int { return s.X + 1 }

// CountAndDegrees implements Oracle: deg(v,Ψ) = C(y,x) + Σ_u C(z_u−1, x−1)
// with y = deg(v) and z_u = deg(u) over neighbors u (Appendix D, Eq. 18).
func (s Star) CountAndDegrees(g *graph.Graph) (int64, []int64) {
	x := int64(s.X)
	deg := make([]int64, g.N())
	var total int64
	for v := 0; v < g.N(); v++ {
		y := int64(g.Degree(v))
		centered := combin.Binom(y, x)
		total += centered
		d := centered
		for _, u := range g.Neighbors(v) {
			d += combin.Binom(int64(g.Degree(int(u)))-1, x-1)
		}
		deg[v] = d
	}
	return total, deg
}

// OnRemove implements Oracle via the Appendix-D decrement rules.
func (s Star) OnRemove(st *State, v int, dec func(u int, delta int64)) int64 {
	x := int64(s.X)
	y := int64(st.RDeg[v])
	destroyed := combin.Binom(y, x)
	centerTail := combin.Binom(y-1, x-1) // stars centered at v containing a given tail
	for _, u := range st.G.Neighbors(v) {
		if !st.Alive[u] {
			continue
		}
		zu := int64(st.RDeg[u])
		destroyed += combin.Binom(zu-1, x-1)
		// Case (1): instances with v center and u tail, plus u center and
		// v tail.
		dec(int(u), centerTail+combin.Binom(zu-1, x-1))
		// Case (2): instances centered at u with both v and w as tails.
		if twoTails := combin.Binom(zu-2, x-2); twoTails > 0 {
			for _, w := range st.G.Neighbors(int(u)) {
				if int(w) != v && st.Alive[w] {
					dec(int(w), twoTails)
				}
			}
		}
	}
	return destroyed
}

// Diamond is the oracle for the 4-cycle ("diamond") with the Appendix-D §2
// loop-pattern counters: instances containing v are pairs of 2-paths from
// v to a common endpoint.
type Diamond struct{}

// Name implements Oracle.
func (Diamond) Name() string { return "diamond" }

// Size implements Oracle.
func (Diamond) Size() int { return 4 }

// CountAndDegrees implements Oracle. deg(v,Ψ) = Σ_w C(cnt(v,w), 2) over
// the 2-path endpoints w of v, cnt(v,w) their common neighbours: a 4-cycle
// through v is fixed by v's opposite corner w and the two common
// neighbours it passes, so each one is counted once in deg(v). Every
// 4-cycle has four members, so µ = Σ_v deg(v) / 4.
func (Diamond) CountAndDegrees(g *graph.Graph) (int64, []int64) {
	deg := make([]int64, g.N())
	cnt := make([]int64, g.N())
	var touched []int32
	var sum int64
	for v := 0; v < g.N(); v++ {
		touched = touched[:0]
		for _, u := range g.Neighbors(v) {
			for _, w := range g.Neighbors(int(u)) {
				if int(w) == v {
					continue
				}
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
		}
		var d int64
		for _, w := range touched {
			d += combin.Binom(cnt[w], 2)
			cnt[w] = 0
		}
		deg[v] = d
		sum += d
	}
	return sum / 4, deg
}

// OnRemove implements Oracle via the Appendix-D loop decrements.
func (Diamond) OnRemove(st *State, v int, dec func(u int, delta int64)) int64 {
	g := st.G
	cnt := make(map[int32]int64)
	// ends lists the 2-path endpoints in first-seen order, so the
	// decrements, and with them the peel's tie order, do not depend on map
	// iteration order.
	var ends []int32
	for _, u := range g.Neighbors(v) {
		if !st.Alive[u] {
			continue
		}
		for _, w := range g.Neighbors(int(u)) {
			if int(w) != v && st.Alive[w] {
				if cnt[w] == 0 {
					ends = append(ends, w)
				}
				cnt[w]++
			}
		}
	}
	var destroyed int64
	for _, w := range ends {
		if c2 := combin.Binom(cnt[w], 2); c2 > 0 {
			destroyed += c2
			dec(int(w), c2) // w is the diagonal partner in C(cnt[w],2) instances
		}
	}
	for _, u := range g.Neighbors(v) {
		if !st.Alive[u] {
			continue
		}
		var d int64
		for _, w := range g.Neighbors(int(u)) {
			if int(w) != v && st.Alive[w] {
				d += cnt[w] - 1 // pair path v-u-w with every other path to w
			}
		}
		if d > 0 {
			dec(int(u), d)
		}
	}
	return destroyed
}

// Generic is the oracle for arbitrary connected patterns, backed by the
// subgraph-isomorphism enumerator.
type Generic struct{ P *pattern.Pattern }

// Name implements Oracle.
func (o Generic) Name() string { return o.P.Name() }

// Size implements Oracle.
func (o Generic) Size() int { return o.P.Size() }

// CountAndDegrees implements Oracle.
func (o Generic) CountAndDegrees(g *graph.Graph) (int64, []int64) {
	deg := o.P.Degrees(g, nil)
	var total int64
	for _, d := range deg {
		total += d
	}
	return total / int64(o.P.Size()), deg
}

// OnRemove implements Oracle by enumerating instances containing v.
func (o Generic) OnRemove(st *State, v int, dec func(u int, delta int64)) int64 {
	var destroyed int64
	o.P.ForEachInstanceContaining(st.G, v, st.Alive, func(phi []int32) {
		destroyed++
		for _, u := range phi {
			if int(u) != v {
				dec(int(u), 1)
			}
		}
	})
	return destroyed
}

// CountAndDegreesWorkers is o.CountAndDegrees(g), striped across workers
// when the oracle has a parallel form.
func CountAndDegreesWorkers(o Oracle, g *graph.Graph, workers int) (int64, []int64) {
	if pc, ok := o.(ParallelCounter); ok && workers > 1 {
		return pc.CountAndDegreesParallel(g, workers)
	}
	return o.CountAndDegrees(g)
}

// Count returns µ(g,Ψ) for oracle o.
func Count(o Oracle, g *graph.Graph) int64 {
	total, _ := o.CountAndDegrees(g)
	return total
}

// CountWithin counts instances, aborting early once the count exceeds
// budget. The boolean reports whether the true count is within budget.
// Fast-counter oracles (stars, diamonds, edges) compute the total in
// closed form; cliques and generic patterns enumerate with early stop.
func CountWithin(o Oracle, g *graph.Graph, budget int64) (int64, bool) {
	switch oo := o.(type) {
	case Generic:
		return oo.P.CountInstancesUpTo(g, nil, budget)
	case Clique:
		if oo.H == 2 {
			return int64(g.M()), int64(g.M()) <= budget
		}
		var c int64
		done := clique.NewLister(g).ForEachStop(oo.H, func([]int32) bool {
			c++
			return c <= budget
		})
		return c, done
	default:
		total, _ := o.CountAndDegrees(g)
		return total, total <= budget
	}
}
