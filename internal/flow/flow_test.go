package flow

import (
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
// the same reset network must agree with fresh networks every time.
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

	// Same size again: residual state from the previous solve must be gone.
	f.Reset(4)
	build(f)
	if got := f.MaxFlow(0, 3); got != 20 {
		t.Fatalf("reset max flow = %d, want 20", got)
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
