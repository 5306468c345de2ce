package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/pattern"
	"repro/internal/psicore"
	"repro/internal/rational"
)

// equivalenceGraphs returns the randomized graph mix for the
// serial/parallel equivalence tests: three families × many seeds, small
// enough that the full sweep stays fast under -race.
func equivalenceGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	for seed := int64(1); seed <= 17; seed++ {
		gs = append(gs, gen.GNM(60, 250, seed))
	}
	for seed := int64(1); seed <= 17; seed++ {
		gs = append(gs, gen.ChungLu(80, 320, 2.3, seed))
	}
	for seed := int64(1); seed <= 16; seed++ {
		gs = append(gs, gen.SSCA(70, 8, seed))
	}
	return gs
}

// TestCoreExactParallelEquivalence is the serial-equivalence proof
// obligation of the parallel engine: across ~50 random graphs and
// h ∈ {2,3,4}, CoreExact with a worker pool must return exactly the
// serial density (rational comparison, not float). Run under -race this
// also exercises the bound cell's synchronization.
func TestCoreExactParallelEquivalence(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		for h := 2; h <= 4; h++ {
			serial := coreExact(t, g, motif.Clique{H: h}, DefaultOptions())
			opts := DefaultOptions()
			opts.Workers = 4
			par := coreExact(t, g, motif.Clique{H: h}, opts)
			if serial.Density.Cmp(par.Density) != 0 {
				t.Fatalf("graph %d h=%d: parallel density %v != serial %v",
					gi, h, par.Density, serial.Density)
			}
			if len(par.Vertices) > 0 {
				if d, _ := densityOf(g, motif.Clique{H: h}, par.Vertices); d.Cmp(par.Density) != 0 {
					t.Fatalf("graph %d h=%d: parallel witness density %v != reported %v",
						gi, h, d, par.Density)
				}
			}
		}
	}
}

// TestCorePExactParallelEquivalence extends the equivalence obligation to
// pattern cores (CorePExact) for the fast-counter patterns.
func TestCorePExactParallelEquivalence(t *testing.T) {
	pats := []*pattern.Pattern{pattern.Star(2), pattern.Diamond()}
	gs := equivalenceGraphs(t)[:10]
	for gi, g := range gs {
		for _, p := range pats {
			serial := coreExact(t, g, motif.For(p), DefaultOptions())
			opts := DefaultOptions()
			opts.Workers = 4
			par := coreExact(t, g, motif.For(p), opts)
			if serial.Density.Cmp(par.Density) != 0 {
				t.Fatalf("graph %d pattern %s: parallel density %v != serial %v",
					gi, p.Name(), par.Density, serial.Density)
			}
		}
	}
}

// TestCoreExactParallelMultiCommunity pins the stress instance: the
// located core decomposes into many components, the component-density
// order is the reverse of the optimum order, and every worker count
// returns the known optimum (the strongest community's kernel+fringe).
func TestCoreExactParallelMultiCommunity(t *testing.T) {
	const k, clique, fringe, fringeBase = 6, 20, 8, 12
	g := gen.MultiCommunity(k, clique, fringe, fringeBase, 14, 1)
	// Optimum: kernel clique + fringe of the strongest community.
	tmax := int64(fringeBase + k - 1)
	mu := int64(clique*(clique-1)*(clique-2)/6) + int64(fringe)*tmax*(tmax-1)/2
	want := rational.New(mu, int64(clique+fringe))
	for _, w := range []int{0, 1, 2, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = w
		res := coreExact(t, g, motif.Clique{H: 3}, opts)
		if res.Density.Cmp(want) != 0 {
			t.Fatalf("workers=%d: density %v, want %v", w, res.Density, want)
		}
	}
}

// TestCoreExactCtxCancelled covers both cancellation paths: a ctx that is
// already dead must fail fast without touching the graph, and a ctx
// cancelled mid-run must stop the component searches promptly instead of
// letting them run to completion.
func TestCoreExactCtxCancelled(t *testing.T) {
	g := gen.MultiCommunity(6, 25, 10, 15, 18, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CoreExact(ctx, g, motif.Clique{H: 3}, DefaultOptions(), nil, nil); err != context.Canceled {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.Workers = 4
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := CoreExact(ctx, g, motif.Clique{H: 3}, opts, nil, nil)
		done <- outcome{res, err}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		// The serial run takes ~100ms+; a prompt cooperative stop returns
		// far sooner. Allow generous slack for loaded CI runners.
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
		if o.err != context.Canceled {
			t.Fatalf("mid-run cancel: err = %v (res=%v), want context.Canceled", o.err, o.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled CoreExact never returned")
	}
}

// TestTheorem1BoundImpliedByKMaxCore justifies dropping the old "cannot
// happen" guard in the Pruning1-off location step: Theorem 1 promises
// ρ(R_kmax) ≥ kmax/|VΨ|, so the kmax-core witness's exact density always
// dominates the kmax/p bound and witness/lower can never desynchronize.
func TestTheorem1BoundImpliedByKMaxCore(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		for h := 2; h <= 4; h++ {
			o := motif.Clique{H: h}
			dec := psicore.Decompose(g, o)
			if dec.TotalInstances == 0 {
				continue
			}
			witness := dec.KMaxCoreVertices()
			lower, _ := densityOf(g, o, witness)
			thm1 := rational.New(dec.KMax, int64(h))
			if thm1.Greater(lower) {
				t.Fatalf("graph %d h=%d: kmax-core density %v below Theorem-1 bound %v",
					gi, h, lower, thm1)
			}
		}
	}
}

// TestCoreExactPruningOffParallel runs the ablation variants (the Figure
// 10 configurations) through the parallel engine on a few graphs: the
// exact density must not depend on which prunings are enabled, serial or
// parallel.
func TestCoreExactPruningOffParallel(t *testing.T) {
	gs := equivalenceGraphs(t)[:6]
	variants := []Options{
		{Pruning1: false, Pruning2: true, Grouped: true},
		{Pruning1: true, Pruning2: false, Grouped: true},
		{Pruning1: false, Pruning2: false, Grouped: true},
	}
	for gi, g := range gs {
		want := coreExact(t, g, motif.Clique{H: 3}, DefaultOptions()).Density
		for vi, opts := range variants {
			opts.Workers = 3
			got := coreExact(t, g, motif.Clique{H: 3}, opts).Density
			if got.Cmp(want) != 0 {
				t.Fatalf("graph %d variant %d: density %v, want %v", gi, vi, got, want)
			}
		}
	}
}
