package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	dsd "repro"
	"repro/internal/core"
)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	r := NewRegistry()
	if _, err := r.Register("bowtie", bowtie()); err != nil {
		t.Fatal(err)
	}
	// A second graph so distinct keys span graphs as well as patterns.
	if _, err := r.Register("k4", dsd.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})); err != nil {
		t.Fatal(err)
	}
	return NewEngine(r, cfg)
}

// patternQuery is the Query for a (pattern name, algorithm) pair.
func patternQuery(t testing.TB, pattern string, algo dsd.Algo) dsd.Query {
	t.Helper()
	p, err := dsd.PatternByName(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return dsd.Query{Pattern: p, Algo: algo}
}

// librarySolve answers q on g through a fresh Solver, the reference the
// engine's answers are checked against.
func librarySolve(t testing.TB, g *dsd.Graph, q dsd.Query) *core.Result {
	t.Helper()
	res, err := dsd.NewSolver(g).Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineQueryMatchesLibrary(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	q := patternQuery(t, "triangle", dsd.AlgoCoreExact)
	res, cached, err := e.Solve(context.Background(), "bowtie", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first query reported cached")
	}
	want := librarySolve(t, bowtie(), q)
	assertSameResult(t, res, want)

	// Second identical query is a cache hit with the same answer.
	res2, cached2, err := e.Solve(context.Background(), "bowtie", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Fatal("repeat query not served from cache")
	}
	assertSameResult(t, res2, want)
	s := e.Stats()
	if s.Queries != 2 || s.Computes != 1 || s.CacheHits != 1 {
		t.Fatalf("stats = %+v, want queries=2 computes=1 hits=1", s)
	}
}

// TestEngineAlgoWorkersCompose checks the two-pool composition: an
// explicit AlgoWorkers is honored, and the default derives from
// GOMAXPROCS/Workers so pool × algo stays ≈ GOMAXPROCS. A parallel
// core-exact query through the composed budget must return the library's
// serial answer.
func TestEngineAlgoWorkersCompose(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, AlgoWorkers: 3})
	if got := e.AlgoWorkers(); got != 3 {
		t.Fatalf("AlgoWorkers() = %d, want 3", got)
	}
	if s := e.Stats(); s.AlgoWorkers != 3 {
		t.Fatalf("Stats().AlgoWorkers = %d, want 3", s.AlgoWorkers)
	}
	q := patternQuery(t, "triangle", dsd.AlgoCoreExact)
	res, _, err := e.Solve(context.Background(), "bowtie", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, librarySolve(t, bowtie(), q))

	// Default: max(1, GOMAXPROCS/pool), never zero.
	wide := newTestEngine(t, Config{Workers: 64})
	wantAW := runtime.GOMAXPROCS(0) / 64
	if wantAW < 1 {
		wantAW = 1
	}
	if got := wide.AlgoWorkers(); got != wantAW {
		t.Fatalf("derived AlgoWorkers = %d, want %d for a 64-wide pool", got, wantAW)
	}
}

func TestEngineErrors(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	cases := []struct {
		graph string
		q     dsd.Query
	}{
		{"nope", dsd.Query{H: 3}},
		{"bowtie", dsd.Query{H: 99}},
		{"bowtie", dsd.Query{H: 3, Algo: "bogus"}},
	}
	for _, c := range cases {
		if _, _, err := e.Solve(context.Background(), c.graph, c.q, 0); err == nil {
			t.Fatalf("query %+v succeeded", c)
		}
	}
	if s := e.Stats(); s.Errors != int64(len(cases)) {
		t.Fatalf("errors = %d, want %d", s.Errors, len(cases))
	}
}

// TestEngineTimeout holds every computation in the compute hook until
// the caller under test has already failed, so each timeout fires before
// the answer can exist, on every run.
func TestEngineTimeout(t *testing.T) {
	// A per-request timeout bounds only that caller's wait: the shared
	// computation runs to completion and serves later callers.
	release := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 1, ComputeHook: func() { <-release }})
	q := patternQuery(t, "triangle", dsd.AlgoCoreExact)
	_, _, err := e.Solve(context.Background(), "bowtie", q, time.Nanosecond)
	if err == nil {
		t.Fatal("1ns wait budget succeeded")
	}
	close(release)
	res, _, err := e.Solve(context.Background(), "bowtie", q, 0)
	if err != nil || res == nil {
		t.Fatalf("retry after caller timeout failed: %v", err)
	}
	if got := e.Stats().Computes; got != 1 {
		t.Fatalf("computes = %d, want 1 (abandoned wait must not void the computation)", got)
	}

	// The engine-wide compute budget is not loosened by a generous
	// per-request timeout, and its errors are not cached.
	tightRelease := make(chan struct{})
	defer close(tightRelease)
	tight := newTestEngine(t, Config{Workers: 1, Timeout: time.Nanosecond, ComputeHook: func() { <-tightRelease }})
	if _, _, err := tight.Solve(context.Background(), "bowtie", q, time.Minute); err == nil {
		t.Fatal("per-request timeout loosened the engine budget")
	}
	if got := tight.cache.Len(); got != 0 {
		t.Fatalf("budget error left %d cache entries", got)
	}
}

func TestEngineCallerCancellation(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Solve(ctx, "bowtie", dsd.Query{H: 3}, 0); err == nil {
		t.Fatal("cancelled caller got a result")
	}
}

// TestEngineStressSingleFlight fires many identical and distinct queries
// concurrently (run under -race) and asserts single-flight dedup: the
// number of computations equals the number of distinct keys, every other
// query is served shared, and all answers agree with direct library calls.
func TestEngineStressSingleFlight(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4})
	type q struct {
		graph, pattern string
		algo           dsd.Algo
	}
	distinct := []q{
		{"bowtie", "edge", dsd.AlgoCoreExact},
		{"bowtie", "triangle", dsd.AlgoCoreExact},
		{"bowtie", "triangle", dsd.AlgoPeel},
		{"bowtie", "diamond", dsd.AlgoExact},
		{"k4", "edge", dsd.AlgoPeel},
		{"k4", "triangle", dsd.AlgoCoreApp},
		{"k4", "4-clique", dsd.AlgoExact},
		{"k4", "2-star", dsd.AlgoInc},
	}
	queries := make([]dsd.Query, len(distinct))
	want := make([]*core.Result, len(distinct))
	graphs := map[string]*dsd.Graph{"bowtie": bowtie(),
		"k4": dsd.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})}
	for i, c := range distinct {
		queries[i] = patternQuery(t, c.pattern, c.algo)
		want[i] = librarySolve(t, graphs[c.graph], queries[i])
	}

	const fanout = 16 // concurrent callers per distinct key
	var wg sync.WaitGroup
	errs := make(chan error, len(distinct)*fanout)
	for i, c := range distinct {
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func(i int, c q) {
				defer wg.Done()
				res, _, err := e.Solve(context.Background(), c.graph, queries[i], 0)
				if err != nil {
					errs <- fmt.Errorf("%+v: %w", c, err)
					return
				}
				if err := sameResult(res, want[i]); err != nil {
					errs <- fmt.Errorf("%+v: %w", c, err)
				}
			}(i, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := e.Stats()
	if s.Computes != int64(len(distinct)) {
		t.Fatalf("computes = %d, want %d (one per distinct key)", s.Computes, len(distinct))
	}
	if s.Queries != int64(len(distinct)*fanout) {
		t.Fatalf("queries = %d, want %d", s.Queries, len(distinct)*fanout)
	}
	if s.CacheHits != s.Queries-s.Computes {
		t.Fatalf("hits = %d, want queries-computes = %d", s.CacheHits, s.Queries-s.Computes)
	}
	if e.cache.Len() != len(distinct) {
		t.Fatalf("cache holds %d entries, want %d", e.cache.Len(), len(distinct))
	}
}

func assertSameResult(t *testing.T, got, want *core.Result) {
	t.Helper()
	if err := sameResult(got, want); err != nil {
		t.Fatal(err)
	}
}

// sameResult checks that two answers agree. Vertex sets are compared
// exactly: the library's algorithms are deterministic for a fixed graph,
// pattern and algorithm.
func sameResult(got, want *core.Result) error {
	if got == nil {
		return fmt.Errorf("nil result")
	}
	if got.Mu != want.Mu || got.Density != want.Density {
		return fmt.Errorf("got µ=%d ρ=%v, want µ=%d ρ=%v", got.Mu, got.Density, want.Mu, want.Density)
	}
	if len(got.Vertices) != len(want.Vertices) {
		return fmt.Errorf("got %d vertices, want %d", len(got.Vertices), len(want.Vertices))
	}
	for i := range got.Vertices {
		if got.Vertices[i] != want.Vertices[i] {
			return fmt.Errorf("vertex sets differ: got %v, want %v", got.Vertices, want.Vertices)
		}
	}
	return nil
}

// TestFloatingQuerySurvivesEviction: a floating-head query pins the head
// at admission, and a burst of mutations longer than the retention window
// that lands before a worker picks the query up must not evict its
// version out from under it — for unary queries and streams alike, and
// for a query its caller pinned with ResolveFor first.
func TestFloatingQuerySurvivesEviction(t *testing.T) {
	ctx := context.Background()
	want, err := dsd.NewSolver(bowtie()).Solve(ctx, dsd.Query{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"solve", "stream", "resolved"} {
		t.Run(mode, func(t *testing.T) {
			r := NewRegistry()
			r.SetRetain(2)
			if _, err := r.Register("bowtie", bowtie()); err != nil {
				t.Fatal(err)
			}
			started, release := make(chan struct{}, 1), make(chan struct{})
			e := NewEngine(r, Config{Workers: 1, ComputeHook: func() {
				started <- struct{}{}
				<-release
			}})
			q := dsd.Query{H: 3}
			if mode == "resolved" {
				if q, err = e.ResolveFor("bowtie", q); err != nil {
					t.Fatal(err)
				}
			}
			type outcome struct {
				res *core.Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				var o outcome
				if mode == "stream" {
					o.res, _, o.err = e.Stream(ctx, "bowtie", q, 0, func(dsd.Answer, bool) {})
				} else {
					o.res, _, o.err = e.Solve(ctx, "bowtie", q, 0)
				}
				done <- o
			}()
			<-started
			for i := 0; i < 5; i++ {
				if _, err := e.Mutate(ctx, "bowtie", dsd.Mutation{Insert: [][2]int{{0, 10 + i}}}); err != nil {
					t.Fatal(err)
				}
			}
			close(release)
			o := <-done
			if o.err != nil {
				t.Fatalf("query admitted before the mutations: %v", o.err)
			}
			assertSameResult(t, o.res, want)
		})
	}
}
