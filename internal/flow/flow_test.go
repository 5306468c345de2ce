package flow

import (
	"context"
	"math"
	"testing"
)

func TestSimplePath(t *testing.T) {
	// s -> a -> t with capacities 3, 2: max flow 2.
	f := NewNetwork(3)
	f.AddEdge(0, 1, 3)
	f.AddEdge(1, 2, 2)
	if got := f.MaxFlow(0, 2); got != 2 {
		t.Fatalf("max flow = %d, want 2", got)
	}
}

func TestClassicDiamond(t *testing.T) {
	// The classic 4-node example: s=0, t=3.
	// s->1 (10), s->2 (10), 1->2 (1), 1->3 (10), 2->3 (10); max flow 20.
	f := NewNetwork(4)
	f.AddEdge(0, 1, 10)
	f.AddEdge(0, 2, 10)
	f.AddEdge(1, 2, 1)
	f.AddEdge(1, 3, 10)
	f.AddEdge(2, 3, 10)
	if got := f.MaxFlow(0, 3); got != 20 {
		t.Fatalf("max flow = %d, want 20", got)
	}
}

func TestBottleneck(t *testing.T) {
	// s->1 (5), 1->2 (1), 2->t (5): bottleneck 1.
	f := NewNetwork(4)
	f.AddEdge(0, 1, 5)
	f.AddEdge(1, 2, 1)
	f.AddEdge(2, 3, 5)
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("max flow = %d, want 1", got)
	}
	inS := f.MinCutSource(0)
	if !inS[0] || !inS[1] || inS[2] || inS[3] {
		t.Fatalf("min cut source side = %v, want {0,1}", inS)
	}
}

func TestInfiniteEdges(t *testing.T) {
	// s->1 (4), 1->2 (+inf: the largest capacity), 2->t (3): max flow 3.
	f := NewNetwork(4)
	f.AddEdge(0, 1, 4)
	f.AddEdge(1, 2, math.MaxInt64)
	f.AddEdge(2, 3, 3)
	if got := f.MaxFlow(0, 3); got != 3 {
		t.Fatalf("max flow = %d, want 3", got)
	}
}

// TestFractionalCapacities: fractional capacities (2.5, 1.75) run as
// integers scaled by their common denominator 4, the way the flownet
// builders scale a probe α = p/q by q; the flow scales back exactly.
func TestFractionalCapacities(t *testing.T) {
	f := NewNetwork(3)
	f.AddEdge(0, 1, 10)
	f.AddEdge(1, 2, 7)
	if got := f.MaxFlow(0, 2); got != 7 {
		t.Fatalf("max flow = %d, want 7 (1.75 scaled by 4)", got)
	}
}

func TestDisconnected(t *testing.T) {
	f := NewNetwork(4)
	f.AddEdge(0, 1, 5)
	f.AddEdge(2, 3, 5)
	if got := f.MaxFlow(0, 3); got != 0 {
		t.Fatalf("max flow = %d, want 0", got)
	}
	inS := f.MinCutSource(0)
	if !inS[0] || !inS[1] || inS[2] || inS[3] {
		t.Fatalf("cut = %v", inS)
	}
}

func TestMaxFlowEqualsMinCutCapacity(t *testing.T) {
	// Random-ish fixed network: verify flow value equals the capacity of
	// the returned cut (max-flow min-cut theorem as a self-check).
	f := NewNetwork(6)
	type e struct {
		u, v int
		c    int64
	}
	edges := []e{
		{0, 1, 6}, {0, 2, 14}, {1, 3, 5}, {2, 3, 4}, {1, 4, 8},
		{2, 4, 2}, {3, 5, 16}, {4, 5, 7}, {3, 4, 3},
	}
	for _, ed := range edges {
		f.AddEdge(ed.u, ed.v, ed.c)
	}
	got := f.MaxFlow(0, 5)
	inS := f.MinCutSource(0)
	var cut int64
	for _, ed := range edges {
		if inS[ed.u] && !inS[ed.v] {
			cut += ed.c
		}
	}
	if got != cut {
		t.Fatalf("flow %d != cut capacity %d", got, cut)
	}
}

// TestResetReusesArena: a solved network rebuilt through Reset must
// behave exactly like a fresh one — same flow, same cut — whether the new
// build is smaller, equal, or larger than the old, and repeated solves on
// the same reset network must agree with fresh networks every time. A
// rebuild no larger than the last keeps the arena: the arc arrays, the
// CSR index and the working state.
func TestResetReusesArena(t *testing.T) {
	build := func(f *Network) {
		f.AddEdge(0, 1, 10)
		f.AddEdge(0, 2, 10)
		f.AddEdge(1, 2, 1)
		f.AddEdge(1, 3, 10)
		f.AddEdge(2, 3, 10)
	}
	f := NewNetwork(4)
	build(f)
	if got := f.MaxFlow(0, 3); got != 20 {
		t.Fatalf("fresh max flow = %d, want 20", got)
	}
	arena := func() [6]*int32 {
		return [6]*int32{&f.to[0], &f.off[0], &f.adj[0], &f.level[0], &f.iter[0], &f.queue[:1][0]}
	}
	before, capBefore := arena(), &f.cap[0]

	// Same size again: residual state from the previous solve must be gone.
	f.Reset(4)
	build(f)
	if got := f.MaxFlow(0, 3); got != 20 {
		t.Fatalf("reset max flow = %d, want 20", got)
	}
	if arena() != before || &f.cap[0] != capBefore {
		t.Fatal("an equal rebuild reallocated the arena")
	}

	// Smaller, with a different topology and a cut check.
	f.Reset(4)
	f.AddEdge(0, 1, 5)
	f.AddEdge(1, 2, 1)
	f.AddEdge(2, 3, 5)
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("reset bottleneck = %d, want 1", got)
	}
	inS := f.MinCutSource(0)
	if !inS[0] || !inS[1] || inS[2] || inS[3] {
		t.Fatalf("reset cut = %v, want {0,1}", inS)
	}
	if arena() != before || &f.cap[0] != capBefore {
		t.Fatal("a smaller rebuild reallocated the arena")
	}

	// Larger than any prior build: the arena must grow transparently.
	f.Reset(6)
	f.AddEdge(0, 4, 2)
	f.AddEdge(4, 5, 2)
	f.AddEdge(5, 3, 2)
	if f.N() != 6 {
		t.Fatalf("N after growing reset = %d, want 6", f.N())
	}
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Fatalf("grown reset max flow = %d, want 2", got)
	}
	if f.NumEdges() != 3 {
		t.Fatalf("NumEdges after reset = %d, want 3", f.NumEdges())
	}
}

// TestAddEdgeAfterRun: an edge added after a run makes the CSR index
// stale; the next run re-indexes, sees the edge, and augments from the
// residual state the last run left.
func TestAddEdgeAfterRun(t *testing.T) {
	f := NewNetwork(4)
	f.AddEdge(0, 1, 5)
	f.AddEdge(1, 3, 3)
	if got := f.MaxFlow(0, 3); got != 3 {
		t.Fatalf("max flow = %d, want 3", got)
	}
	// A second route to t for the 2 units s→1 still has room for.
	f.AddEdge(1, 2, 4)
	f.AddEdge(2, 3, 4)
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Fatalf("max flow after adding edges = %d, want 2 more", got)
	}
	if inS := f.MinCutSource(0); !inS[0] || inS[1] || inS[2] || inS[3] {
		t.Fatalf("cut after adding edges = %v, want {0}", inS)
	}
	// A cut read before any run indexes the network too.
	g := NewNetwork(3)
	g.AddEdge(0, 1, 1)
	if inS := g.MinCutSource(0); !inS[0] || !inS[1] || inS[2] {
		t.Fatalf("cut before a run = %v, want {0,1}", inS)
	}
}

// pollCtx is a context whose Err reports context.Canceled from its
// cancelAt-th call on, so a test can cancel a run at a chosen poll.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestMaxFlowCtxCancelsInsidePhase: the blocking flow of one phase is
// polled as it runs. The network is 3·pollEvery parallel two-arc paths,
// which one phase saturates; a context that turns cancelled at its
// second poll — the first is at the phase start — must stop that phase.
func TestMaxFlowCtxCancelsInsidePhase(t *testing.T) {
	const k = 3 * pollEvery
	build := func() *Network {
		f := NewNetwork(2 + k)
		for i := range k {
			f.AddEdge(0, 2+i, 1)
			f.AddEdge(2+i, 1, 1)
		}
		return f
	}
	ctx := &pollCtx{Context: context.Background(), cancelAt: math.MaxInt}
	if got, err := build().MaxFlowCtx(ctx, 0, 1); err != nil || got != k {
		t.Fatalf("uncancelled run = %d, %v; want %d", got, err, k)
	}
	if ctx.polls < 3 {
		t.Fatalf("a %d-visit phase polled %d times", k, ctx.polls)
	}
	ctx = &pollCtx{Context: context.Background(), cancelAt: 2}
	if got, err := build().MaxFlowCtx(ctx, 0, 1); err != context.Canceled || got >= k {
		t.Fatalf("cancelled run = %d, %v; want a partial flow and %v", got, err, context.Canceled)
	}
	if ctx.polls != 2 {
		t.Fatalf("cancelled run polled %d times, want 2", ctx.polls)
	}
}

func TestNumEdges(t *testing.T) {
	f := NewNetwork(3)
	f.AddEdge(0, 1, 1)
	f.AddEdge(1, 2, 1)
	if f.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", f.NumEdges())
	}
	if f.N() != 3 {
		t.Fatalf("N = %d, want 3", f.N())
	}
}

// TestReserveKeepsEdgeArrays checks that the edges a Reserve made room
// for fill the arrays in place, and that flows are unchanged by it.
func TestReserveKeepsEdgeArrays(t *testing.T) {
	f := NewNetwork(4)
	f.AddEdge(0, 1, 3)
	f.Reserve(4)
	to, c := &f.to[0], &f.cap[0]
	if f.EdgeCap() != 5 {
		t.Fatalf("room for %d edges, want 5", f.EdgeCap())
	}
	f.AddEdge(0, 2, 2)
	f.AddEdge(1, 3, 2)
	f.AddEdge(2, 3, 3)
	f.AddEdge(1, 2, 1)
	if &f.to[0] != to || &f.cap[0] != c || f.EdgeCap() != 5 {
		t.Fatal("reserved edges grew the edge arrays")
	}
	if got := f.MaxFlow(0, 3); got != 5 {
		t.Fatalf("max flow = %d, want 5", got)
	}
	f.Reserve(0)
	if &f.to[0] != to {
		t.Fatal("an empty reservation moved the edge arrays")
	}
}

// BenchmarkMaxFlow times a rebuild into a recycled arena plus one
// max-flow run on a layered network: s → 256 left nodes → 4,096 right
// nodes → t, each left node with 64 pseudo-random right neighbours.
func BenchmarkMaxFlow(b *testing.B) {
	const left, right, fan = 256, 4096, 64
	f := NewNetwork(0)
	b.ReportAllocs()
	for b.Loop() {
		f.Reset(2 + left + right)
		f.Reserve(left + left*fan + right)
		x := uint32(1)
		for u := range left {
			f.AddEdge(0, 2+u, fan)
			for range fan {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				f.AddEdge(2+u, 2+left+int(x%right), 1)
			}
		}
		for w := range right {
			f.AddEdge(2+left+w, 1, 3)
		}
		f.MaxFlow(0, 1)
	}
}
