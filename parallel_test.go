package dsd_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	dsd "repro"
)

// TestCliqueDensestWithWorkers drives the parallel engine through
// Query.Workers: every worker count must return the serial density, and
// a Query with no Algo must behave like AlgoCoreExact.
func TestCliqueDensestWithWorkers(t *testing.T) {
	g := dsd.GenerateMultiCommunity(4, 15, 5, 8, 10, 1)
	serial, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3, Algo: dsd.AlgoCoreExact})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 4} {
		res, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Density.Cmp(serial.Density) != 0 {
			t.Fatalf("workers=%d: density %v, want %v", w, res.Density, serial.Density)
		}
	}
	// Workers composes with a pattern motif too.
	p, err := dsd.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	res, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{Pattern: p, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Density.Cmp(serial.Density) != 0 {
		t.Fatalf("pattern path: density %v, want %v", res.Density, serial.Density)
	}
}

// TestCliqueDensestWithBadInput checks that a parallel query validates
// like a serial one.
func TestCliqueDensestWithBadInput(t *testing.T) {
	s := dsd.NewSolver(dsd.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}))
	if _, err := s.Solve(context.Background(), dsd.Query{H: 1, Workers: 2}); err == nil {
		t.Fatal("h=1 accepted")
	}
	if _, err := s.Solve(context.Background(), dsd.Query{H: 3, Workers: 2, Algo: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestCliqueDensestContextCancelStopsWork asserts the issue's contract:
// cancelling a core-exact query returns promptly AND the discarded
// computation stops instead of running to completion — the goroutine
// count returns to its baseline shortly after the cancel, which would not
// happen if the search ran on to the end of a long instance.
func TestCliqueDensestContextCancelStopsWork(t *testing.T) {
	g := dsd.GenerateMultiCommunity(8, 25, 10, 15, 18, 1)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := dsd.NewSolver(g).Solve(ctx, dsd.Query{H: 3, Workers: 4})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query never returned")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// The worker goroutines poll ctx at flow-solve granularity; give them
	// a moment to notice and drain back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestContextVariantsStillServeOtherAlgos pins the await-based fallback:
// non-preemptible algorithms still answer under a ctx.
func TestContextVariantsStillServeOtherAlgos(t *testing.T) {
	g := dsd.GenerateChungLu(200, 800, 2.5, 3)
	for _, algo := range []dsd.Algo{dsd.AlgoPeel, dsd.AlgoCoreApp} {
		res, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3, Algo: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res == nil {
			t.Fatalf("%s: nil result", algo)
		}
	}
}
