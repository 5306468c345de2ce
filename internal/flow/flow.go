// Package flow implements maximum flow / minimum s-t cut with Dinic's
// algorithm over int64 capacities. The densest-subgraph networks of the
// paper probe a rational guess α = p/q; internal/flownet scales every
// capacity by q, so the networks are integral and every residual test is
// an exact comparison with zero — there is no tolerance to tune, and a
// min cut at α equal to a density ties exactly.
package flow

import (
	"context"
	"math"
)

// Network is a directed flow network under construction or after a
// max-flow run. Nodes are dense ints; add edges with AddEdge, then call
// MaxFlow once. Reset recycles a solved network's allocations for the
// next build — the Dinkelbach searches build one network per probe on
// the same (shrinking) graph, so steady-state probes reuse the edge
// arrays, per-node adjacency lists and BFS/DFS working state instead of
// reallocating them.
type Network struct {
	head [][]int32 // per node: indices into the edge arrays
	to   []int32
	cap  []int64 // residual capacity
	// iter/level/queue are Dinic working state, kept across runs.
	level []int32
	iter  []int32
	queue []int32
}

// NewNetwork creates a network with n nodes.
func NewNetwork(n int) *Network {
	return &Network{head: make([][]int32, n)}
}

// Reset re-dimensions f to n nodes and zero edges, retaining every prior
// allocation it can: the edge arrays, each node's adjacency list, and the
// Dinic working state. After Reset the network is indistinguishable from
// NewNetwork(n) to callers.
func (f *Network) Reset(n int) {
	if n <= cap(f.head) {
		f.head = f.head[:n]
	} else {
		f.head = append(f.head[:cap(f.head)], make([][]int32, n-cap(f.head))...)
	}
	for i := range f.head {
		f.head[i] = f.head[i][:0]
	}
	f.to = f.to[:0]
	f.cap = f.cap[:0]
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
func (f *Network) N() int { return len(f.head) }

// NumEdges returns the number of directed edges added (excluding the
// implicit reverse edges).
func (f *Network) NumEdges() int { return len(f.to) / 2 }

// AddEdge adds a directed edge u→v with the given non-negative capacity
// (and the implicit residual reverse edge of capacity 0). The caller
// keeps the total of all source capacities within int64: it bounds every
// flow value the run computes.
func (f *Network) AddEdge(u, v int, capacity int64) {
	f.head[u] = append(f.head[u], int32(len(f.to)))
	f.to = append(f.to, int32(v))
	f.cap = append(f.cap, capacity)
	f.head[v] = append(f.head[v], int32(len(f.to)))
	f.to = append(f.to, int32(u))
	f.cap = append(f.cap, 0)
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
		for _, ei := range f.head[v] {
			w := f.to[ei]
			if f.cap[ei] > 0 && f.level[w] < 0 {
				f.level[w] = f.level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	f.queue = queue[:0]
	return f.level[t] >= 0
}

func (f *Network) dfs(v, t int, pushed int64) int64 {
	if v == t {
		return pushed
	}
	for ; f.iter[v] < int32(len(f.head[v])); f.iter[v]++ {
		ei := f.head[v][f.iter[v]]
		w := f.to[ei]
		if f.cap[ei] == 0 || f.level[w] != f.level[v]+1 {
			continue
		}
		if d := f.dfs(int(w), t, min(pushed, f.cap[ei])); d > 0 {
			f.cap[ei] -= d
			f.cap[ei^1] += d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum s-t flow, mutating residual capacities.
func (f *Network) MaxFlow(s, t int) int64 {
	total, _ := f.MaxFlowCtx(context.Background(), s, t)
	return total
}

// MaxFlowCtx is MaxFlow with cancellation points: the context is polled
// at every Dinic phase and every 64 augmenting paths, so a
// deadline-budgeted caller regains control within a fraction of a full
// run instead of waiting out the whole min-cut. On cancellation the
// partial flow is abandoned (the network's residual state is
// meaningless) and the context's error is returned.
func (f *Network) MaxFlowCtx(ctx context.Context, s, t int) (int64, error) {
	f.level = grow(f.level, f.N())
	f.iter = grow(f.iter, f.N())
	var total int64
	paths := 0
	for f.bfs(s, t) {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		for i := range f.iter {
			f.iter[i] = 0
		}
		for {
			d := f.dfs(s, t, math.MaxInt64)
			if d == 0 {
				break
			}
			total += d
			if paths++; paths%64 == 0 {
				if err := ctx.Err(); err != nil {
					return total, err
				}
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
	inS := make([]bool, f.N())
	inS[s] = true
	stack := []int32{int32(s)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range f.head[v] {
			w := f.to[ei]
			if f.cap[ei] > 0 && !inS[w] {
				inS[w] = true
				stack = append(stack, w)
			}
		}
	}
	return inS
}
