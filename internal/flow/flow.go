// Package flow implements maximum flow / minimum s-t cut with Dinic's
// algorithm over int64 capacities. The densest-subgraph networks of the
// paper probe a rational guess α = p/q; internal/flownet scales every
// capacity by q, so the networks are integral and every residual test is
// an exact comparison with zero — there is no tolerance to tune, and a
// min cut at α equal to a density ties exactly.
//
// Layout. A network is an arena of flat arrays: the arc arrays to and
// cap, where arc 2i is the i-th added edge and arc 2i+1 its residual
// reverse (so arc e's tail is to[e^1]), and a CSR index over them —
// off[v]..off[v+1] delimits v's slice of adj, the ids of the arcs
// leaving v in insertion order. Adding an edge only appends to the arc
// arrays; the index is rebuilt by one counting pass when a run needs it.
// SetCap rewrites an edge's capacity in place and keeps the index, so a
// network whose topology stays fixed is indexed once.
package flow

import (
	"context"
	"math"
)

// pollEvery is how many DFS node visits a max-flow run makes between two
// polls of its context.
const pollEvery = 1 << 14

// Network is a directed flow network under construction or after a
// max-flow run. Nodes are dense ints; add edges with AddEdge, then call
// MaxFlow. The Dinkelbach searches probe one network per graph at
// several α: SetCap re-capacitates it for the next probe, keeping its
// arcs and CSR index, and Reset recycles the whole arena for the
// network of a smaller graph, keeping the arc arrays, the index arrays
// and the BFS/DFS working state instead of reallocating them.
type Network struct {
	n   int
	to  []int32
	cap []int64 // residual capacity
	// off/adj are the CSR index over the arcs, valid while indexed
	// equals len(to); -1 marks it stale after a Reset.
	off     []int32
	adj     []int32
	indexed int
	// iter/level/queue are Dinic working state, kept across runs.
	level []int32
	iter  []int32
	queue []int32
	// ctx, err and budget drive the context polls of a running DFS.
	ctx    context.Context
	err    error
	budget int
}

// NewNetwork creates a network with n nodes.
func NewNetwork(n int) *Network {
	return &Network{n: n, indexed: -1}
}

// Reset re-dimensions f to n nodes and zero edges, retaining every prior
// allocation: the arc arrays, the CSR index and the Dinic working state.
// After Reset the network is indistinguishable from NewNetwork(n) to
// callers.
func (f *Network) Reset(n int) {
	f.n = n
	f.to = f.to[:0]
	f.cap = f.cap[:0]
	f.indexed = -1
}

// Reserve makes room for arcs more AddEdge calls, so that a builder
// that knows its edge count fills the edge arrays without growing them.
// A recycled network that already has the room keeps its arrays.
func (f *Network) Reserve(arcs int) {
	need := len(f.to) + 2*arcs
	if need <= cap(f.to) && need <= cap(f.cap) {
		return
	}
	to := make([]int32, len(f.to), need)
	copy(to, f.to)
	c := make([]int64, len(f.cap), need)
	copy(c, f.cap)
	f.to, f.cap = to, c
}

// EdgeCap returns how many directed edges the network holds room for
// before its edge arrays grow.
func (f *Network) EdgeCap() int { return min(cap(f.to), cap(f.cap)) / 2 }

// N returns the number of nodes.
func (f *Network) N() int { return f.n }

// NumEdges returns the number of directed edges added (excluding the
// implicit reverse edges).
func (f *Network) NumEdges() int { return len(f.to) / 2 }

// AddEdge adds a directed edge u→v with the given non-negative capacity
// (and the implicit residual reverse edge of capacity 0). The caller
// keeps the total of all source capacities within int64: it bounds every
// flow value the run computes. An edge added after a run is part of the
// next run, which starts from the residual state the last one left.
func (f *Network) AddEdge(u, v int, capacity int64) {
	f.to = append(f.to, int32(v), int32(u))
	f.cap = append(f.cap, capacity, 0)
}

// SetCap sets the capacity of the i-th added edge to c and that of its
// reverse to 0, dropping any flow a run left on the edge. The CSR index
// stays current: a network whose every edge is set again runs exactly
// as a fresh build of the same edges with the new capacities would.
func (f *Network) SetCap(i int, c int64) {
	f.cap[2*i] = c
	f.cap[2*i+1] = 0
}

// index builds the CSR index over the arcs unless it is current: one
// pass counts the arcs leaving each node, a second places every arc id
// after the earlier arcs of its tail, so each node lists its arcs in the
// order they were added.
func (f *Network) index() {
	if f.indexed == len(f.to) {
		return
	}
	n := f.n
	f.off = grow(f.off, n+1)
	clear(f.off)
	for e := range f.to {
		f.off[f.to[e^1]+1]++
	}
	for v := 0; v < n; v++ {
		f.off[v+1] += f.off[v]
	}
	f.adj = grow(f.adj, len(f.to))
	f.iter = grow(f.iter, n) // the fill cursors; a run resets them
	copy(f.iter, f.off[:n])
	for e := range f.to {
		tail := f.to[e^1]
		f.adj[f.iter[tail]] = int32(e)
		f.iter[tail]++
	}
	f.indexed = len(f.to)
}

func (f *Network) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	// Pop by index, not by reslicing: saving a head-advanced slice back
	// would retain only the array tail and defeat the reuse.
	queue := append(f.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if lt := f.level[t]; lt >= 0 && f.level[v] >= lt {
			// Every shortest path is found. The nodes at t's level
			// lead nowhere in this phase: unlabel them so that the
			// DFS does not enter them.
			for _, w := range queue[head:] {
				if int(w) != t {
					f.level[w] = -1
				}
			}
			break
		}
		for _, e := range f.adj[f.off[v]:f.off[v+1]] {
			// The level array is small and the arcs are many: test it
			// first, so that most arcs cost no load of their capacity.
			w := f.to[e]
			if f.level[w] < 0 && f.cap[e] > 0 {
				f.level[w] = f.level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	f.queue = queue[:0]
	return f.level[t] >= 0
}

// dfs pushes up to limit units from v towards t along the level graph
// and returns how much it pushed. One visit sends flow through every
// admissible arc of v in turn until limit is met, and iter[v] stays on
// the last arc that may still carry more; every other arc it passes is
// saturated or leads to a blocked node. Every pollEvery visits it polls
// the run's context, and once that reports an error it only unwinds.
func (f *Network) dfs(v, t int32, limit int64) int64 {
	if v == t {
		return limit
	}
	if f.budget--; f.budget == 0 {
		f.budget = pollEvery
		if f.err = f.ctx.Err(); f.err != nil {
			return 0
		}
	}
	next := f.level[v] + 1
	var pushed int64
	end := f.off[v+1]
	for i := f.iter[v]; i < end; i++ {
		e := f.adj[i]
		w := f.to[e]
		if f.level[w] != next || f.cap[e] == 0 {
			continue
		}
		d := f.dfs(w, t, min(limit-pushed, f.cap[e]))
		if d > 0 {
			f.cap[e] -= d
			f.cap[e^1] += d
			if pushed += d; pushed == limit {
				f.iter[v] = i
				return pushed
			}
		}
		if f.err != nil {
			return pushed
		}
	}
	f.iter[v] = end
	return pushed
}

// MaxFlow computes the maximum s-t flow, mutating residual capacities.
func (f *Network) MaxFlow(s, t int) int64 {
	total, _ := f.MaxFlowCtx(context.Background(), s, t)
	return total
}

// MaxFlowCtx is MaxFlow with cancellation points: the context is polled
// at every Dinic phase and every pollEvery node visits inside one, so a
// deadline-budgeted caller regains control within a fraction of a full
// run instead of waiting out the whole min-cut. On cancellation the
// partial flow is abandoned (the network's residual state is
// meaningless) and the context's error is returned.
func (f *Network) MaxFlowCtx(ctx context.Context, s, t int) (int64, error) {
	f.index()
	f.level = grow(f.level, f.n)
	f.ctx, f.err, f.budget = ctx, nil, pollEvery
	defer func() { f.ctx = nil }()
	var total int64
	for f.bfs(s, t) {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		copy(f.iter, f.off[:f.n])
		for {
			d := f.dfs(int32(s), int32(t), math.MaxInt64)
			total += d
			if f.err != nil {
				return total, f.err
			}
			if d == 0 {
				break
			}
		}
	}
	return total, nil
}

// grow returns s resized to n elements, reusing its array when it is
// large enough. Contents are not cleared; callers initialize.
func grow(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int32, n)
}

// MinCutSource returns, after MaxFlow, the source side S of a minimum
// s-t cut: all nodes reachable from s in the residual network. It is the
// smallest source side of any minimum cut (the intersection of them
// all), so a cut that ties with the trivial cut {s} returns {s}.
func (f *Network) MinCutSource(s int) []bool {
	f.index()
	inS := make([]bool, f.n)
	inS[s] = true
	stack := append(f.queue[:0], int32(s))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range f.adj[f.off[v]:f.off[v+1]] {
			w := f.to[e]
			if f.cap[e] > 0 && !inS[w] {
				inS[w] = true
				stack = append(stack, w)
			}
		}
	}
	f.queue = stack[:0]
	return inS
}
