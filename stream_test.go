package dsd_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	dsd "repro"
)

// collect streams q on s and returns every answer StreamFunc delivered,
// failing the test on an error or when the last answer is not the
// returned Result's.
func collect(t *testing.T, s *dsd.Solver, q dsd.Query) []dsd.Answer {
	t.Helper()
	var got []dsd.Answer
	res, err := s.StreamFunc(context.Background(), q, func(a dsd.Answer) { got = append(got, a) })
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(got) == 0 || got[len(got)-1].Density.Cmp(res.Density) != 0 {
		t.Fatalf("stream of %d answers does not end with the returned density %v", len(got), res.Density)
	}
	return got
}

// checkMonotone asserts the stream-level contract over a collected
// sequence: certified events only (each witness's exact density is the
// lower end), lower ends never fall, upper ends never rise, every event
// strictly tightens one of them, and the last — and only the last — is
// Final.
func checkMonotone(t *testing.T, s *dsd.Solver, q dsd.Query, got []dsd.Answer) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("stream delivered no answers")
	}
	for i, a := range got {
		if a.Final != (i == len(got)-1) {
			t.Fatalf("event %d/%d: Final=%v", i, len(got), a.Final)
		}
		if len(a.Witness) > 0 {
			ev, err := s.EvaluateWitness(q, a.Witness)
			if err != nil {
				t.Fatalf("event %d: witness evaluation: %v", i, err)
			}
			if ev.Density.Cmp(a.Density) != 0 {
				t.Fatalf("event %d: claimed density %v but witness has %v", i, a.Density, ev.Density)
			}
		} else if !a.Density.IsZero() {
			t.Fatalf("event %d: density %v with no witness", i, a.Density)
		}
		// The upper end is a float; allow it to sit within rounding of the
		// rational lower end, never meaningfully below it.
		if !math.IsInf(a.Bound, 1) && a.Density.Float() > a.Bound*(1+1e-9)+1e-12 {
			t.Fatalf("event %d: lower %v above upper %v", i, a.Density.Float(), a.Bound)
		}
		if i == 0 {
			continue
		}
		p := got[i-1]
		dc := a.Density.Cmp(p.Density)
		if dc < 0 {
			t.Fatalf("event %d: lower end fell %v -> %v", i, p.Density, a.Density)
		}
		if a.Bound > p.Bound {
			t.Fatalf("event %d: upper end rose %v -> %v", i, p.Bound, a.Bound)
		}
		if !a.Final && dc == 0 && a.Bound == p.Bound {
			t.Fatalf("event %d (%s): no strict tightening", i, a.Stage)
		}
	}
}

// TestStreamEquivalence: the stream's final answer must be bit-identical
// to Solve's on the same query, cold and warm, serial and parallel, with
// every intermediate certified and monotone.
func TestStreamEquivalence(t *testing.T) {
	graphs := []*dsd.Graph{
		dsd.GenerateMultiCommunity(8, 25, 10, 15, 18, 1),
		dsd.GenerateGNM(60, 250, 7),
		dsd.GenerateSSCA(70, 8, 3),
	}
	for gi, g := range graphs {
		for _, workers := range []int{1, 4} {
			q := dsd.Query{H: 3, Workers: workers}
			ref, err := dsd.NewSolver(g).Solve(context.Background(), q)
			if err != nil {
				t.Fatalf("graph %d: solve: %v", gi, err)
			}
			s := dsd.NewSolver(g)
			for _, phase := range []string{"cold", "warm"} {
				got := collect(t, s, q)
				checkMonotone(t, s, q, got)
				fin := got[len(got)-1]
				if fin.Density.Cmp(ref.Density) != 0 {
					t.Fatalf("graph %d %s workers=%d: stream density %v != solve %v",
						gi, phase, workers, fin.Density, ref.Density)
				}
				if fin.Degraded {
					t.Fatalf("graph %d %s: unbudgeted stream degraded", gi, phase)
				}
			}
		}
	}
}

// TestStreamFuncSeesEveryEvent asserts the full sequence StreamFunc
// delivers obeys the monotone contract and that a certified answer
// precedes the final one.
func TestStreamFuncSeesEveryEvent(t *testing.T) {
	g := dsd.GenerateMultiCommunity(8, 25, 10, 15, 18, 1)
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3}
	var got []dsd.Answer
	res, err := s.StreamFunc(context.Background(), q, func(a dsd.Answer) { got = append(got, a) })
	if err != nil {
		t.Fatalf("streamfunc: %v", err)
	}
	checkMonotone(t, s, q, got)
	if len(got) < 2 {
		t.Fatalf("expected intermediate answers before the final one, got %d events", len(got))
	}
	fin := got[len(got)-1]
	if fin.Density.Cmp(res.Density) != 0 {
		t.Fatalf("final event density %v != returned result %v", fin.Density, res.Density)
	}
}

// TestStreamDeadline: a deadline-budgeted stream must end in a Final
// answer whose certified interval contains the exact density, Degraded
// or not.
func TestStreamDeadline(t *testing.T) {
	g := dsd.GenerateMultiCommunity(8, 25, 10, 15, 18, 1)
	exact, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3, Deadline: time.Nanosecond}
	// A 1ns deadline may die mid-plan (an error) or degrade; both are the
	// Solve contract. Only a Final answer makes interval claims.
	var got []dsd.Answer
	if _, err := s.StreamFunc(context.Background(), q, func(a dsd.Answer) { got = append(got, a) }); err != nil {
		return
	}
	if len(got) == 0 || !got[len(got)-1].Final {
		t.Fatal("stream returned without a final answer")
	}
	fin := got[len(got)-1]
	if fin.Degraded {
		if fin.Density.Greater(exact.Density) {
			t.Fatalf("degraded lower %v above exact %v", fin.Density, exact.Density)
		}
		if exact.Density.CmpFloat(fin.Bound) > 0 {
			t.Fatalf("degraded upper %v below exact %v", fin.Bound, exact.Density)
		}
	} else if fin.Density.Cmp(exact.Density) != 0 {
		t.Fatalf("undegraded final %v != exact %v", fin.Density, exact.Density)
	}
}

// TestStreamGap: an accuracy-budgeted stream's final interval must be
// within the requested relative gap and contain the exact density.
func TestStreamGap(t *testing.T) {
	g := dsd.GenerateMultiCommunity(8, 25, 10, 15, 18, 1)
	exact, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3, Gap: 0.5}
	got := collect(t, s, q)
	checkMonotone(t, s, q, got)
	fin := got[len(got)-1]
	if fin.Density.Greater(exact.Density) {
		t.Fatalf("gap lower %v above exact %v", fin.Density, exact.Density)
	}
	if fin.Degraded {
		if exact.Density.CmpFloat(fin.Bound) > 0 {
			t.Fatalf("gap upper %v below exact %v", fin.Bound, exact.Density)
		}
		if fin.Bound > fin.Density.Float()*1.5*(1+1e-9) {
			t.Fatalf("gap interval [%v, %v] wider than the 0.5 budget", fin.Density.Float(), fin.Bound)
		}
	}
}

// TestStreamCancel: a cancelled stream must return ctx's error and
// deliver no Final answer.
func TestStreamCancel(t *testing.T) {
	g := dsd.GenerateMultiCommunity(8, 25, 10, 15, 18, 1)
	s := dsd.NewSolver(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var final bool
	res, err := s.StreamFunc(ctx, dsd.Query{H: 3}, func(a dsd.Answer) { final = final || a.Final })
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled stream returned (%v, %v), want ctx's error", res, err)
	}
	if final {
		t.Fatal("cancelled stream delivered a Final answer")
	}
}

// TestStreamRejectsNonCoreExact: streaming is defined for the exact
// ladder only; other algos are errors.
func TestStreamRejectsNonCoreExact(t *testing.T) {
	s := dsd.NewSolver(dsd.GenerateGNM(20, 40, 1))
	if _, err := s.StreamFunc(context.Background(), dsd.Query{H: 3, Algo: dsd.AlgoPeel}, nil); err == nil {
		t.Fatal("expected error for Algo=peel streamfunc")
	}
}

// TestStreamConcurrentWithSolve exercises the memo state under the race
// detector: streams and solves of the same query share one Solver.
func TestStreamConcurrentWithSolve(t *testing.T) {
	g := dsd.GenerateMultiCommunity(6, 20, 8, 12, 14, 1)
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3, Workers: 2}
	ref, err := s.Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(streaming bool) {
			defer wg.Done()
			if streaming {
				var last dsd.Answer
				if _, err := s.StreamFunc(context.Background(), q, func(a dsd.Answer) { last = a }); err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				if !last.Final || last.Density.Cmp(ref.Density) != 0 {
					t.Errorf("concurrent stream final %v != %v", last.Density, ref.Density)
				}
			} else {
				res, err := s.Solve(context.Background(), q)
				if err != nil {
					t.Errorf("solve: %v", err)
					return
				}
				if res.Density.Cmp(ref.Density) != 0 {
					t.Errorf("concurrent solve %v != %v", res.Density, ref.Density)
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
}
