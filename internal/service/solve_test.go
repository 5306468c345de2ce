package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	dsd "repro"
)

// TestSolveCacheKeying is the cache-keying proof obligation of the Query
// redesign, run under -race: requests differing only in one Query field
// — anchored vertices, the at-least-k bound, batch-peel ε, execution
// knobs — must never share a single-flight entry,
// while identical queries (under any spelling of the same canonical
// form) still dedupe to one computation.
func TestSolveCacheKeying(t *testing.T) {
	// AlgoWorkers pinned to 1 so the explicit Workers: 2 query below is
	// guaranteed distinct from the engine-defaulted ones on any machine.
	e := newTestEngine(t, Config{Workers: 4, AlgoWorkers: 1})
	triangle, err := dsd.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}

	// Distinct computations: each group is one canonical key.
	groups := [][]dsd.Query{
		// Spellings of the same computation land in one group.
		{{H: 3}, {Pattern: triangle}, {H: 3, Algo: dsd.AlgoCoreExact}},
		{{H: 3, Algo: dsd.AlgoPeel}},
		// New-field variations that must stay distinct.
		{{Anchors: []int32{0}}, {Algo: dsd.AlgoAnchored, Anchors: []int32{0}}},
		{{Anchors: []int32{1}}},
		{{Anchors: []int32{0, 1}}},
		{{H: 3, AtLeast: 3}},
		{{H: 3, AtLeast: 4}},
		{{H: 3, Eps: 0.25}},
		{{H: 3, Eps: 0.5}},
		{{H: 3, Iterative: -1}},
		{{H: 3, Workers: 2}},
	}

	const fanout = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(groups)*3*fanout)
	results := make([][]*dsd.Result, len(groups))
	var mu sync.Mutex
	for gi, group := range groups {
		for _, q := range group {
			for j := 0; j < fanout; j++ {
				wg.Add(1)
				go func(gi int, q dsd.Query) {
					defer wg.Done()
					res, _, err := e.Solve(context.Background(), "bowtie", q, 0)
					if err != nil {
						errs <- fmt.Errorf("group %d %+v: %w", gi, q, err)
						return
					}
					mu.Lock()
					results[gi] = append(results[gi], res)
					mu.Unlock()
				}(gi, q)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every request in a group got the same answer (single flight), and
	// the engine computed exactly one result per group — never fewer
	// (keys collapsed) and never more (spellings missed the dedup).
	for gi, rs := range results {
		for _, r := range rs[1:] {
			if r.Density.Cmp(rs[0].Density) != 0 {
				t.Fatalf("group %d: densities diverge: %v vs %v", gi, r.Density, rs[0].Density)
			}
		}
	}
	if got := e.Stats().Computes; got != int64(len(groups)) {
		t.Fatalf("computes = %d, want %d (one per distinct canonical key)", got, len(groups))
	}
	if got := e.cache.Len(); got != len(groups) {
		t.Fatalf("cache holds %d entries, want %d", got, len(groups))
	}
}

// TestSolveSharesCacheWithV1 pins that a query streamed on the v1 stream
// endpoint's pipeline (Engine.Stream) and its unary equivalent, spelled
// differently, hit the same entry.
func TestSolveSharesCacheWithV1(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	streamed := patternQuery(t, "triangle", dsd.AlgoCoreExact)
	if _, cached, err := e.Stream(context.Background(), "bowtie", streamed, 0, func(dsd.Answer, bool) {}); err != nil || cached {
		t.Fatalf("stream miss: cached=%t err=%v", cached, err)
	}
	res, cached, err := e.Solve(context.Background(), "bowtie", dsd.Query{H: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("equivalent unary query missed the streamed entry")
	}
	if res == nil || res.Density.IsZero() {
		t.Fatalf("cached result empty: %+v", res)
	}
	if got := e.Stats().Computes; got != 1 {
		t.Fatalf("computes = %d, want 1", got)
	}
}

// TestSolveWarmSolverAcrossKeys pins the tentpole's service-level win:
// two *different* cache keys on the same graph and Ψ still share the
// registry Solver's memo, so the second computation reuses the
// decomposition instead of recomputing it.
func TestSolveWarmSolverAcrossKeys(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	cold, _, err := e.Solve(context.Background(), "bowtie", dsd.Query{H: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.ReusedDecomposition {
		t.Fatal("first computation claims a reused decomposition")
	}
	// Different key (peel), same Ψ: a cache miss that must still be warm.
	warm, cached, err := e.Solve(context.Background(), "bowtie", dsd.Query{H: 3, Algo: dsd.AlgoPeel}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("distinct key reported cached")
	}
	if !warm.Stats.ReusedDecomposition {
		t.Fatal("second computation on the hot graph recomputed the decomposition")
	}
}

func TestSolveErrors(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	cases := []struct {
		graph string
		q     dsd.Query
	}{
		{"nope", dsd.Query{H: 3}},
		{"bowtie", dsd.Query{H: 1}},
		{"bowtie", dsd.Query{Algo: "bogus"}},
		{"bowtie", dsd.Query{Algo: dsd.AlgoAnchored}},
		{"bowtie", dsd.Query{H: 3, Algo: dsd.AlgoPeel, Eps: 0.5}}, // eps without batch-peel
	}
	for _, c := range cases {
		if _, _, err := e.Solve(context.Background(), c.graph, c.q, 0); err == nil {
			t.Fatalf("Solve(%q, %+v) succeeded", c.graph, c.q)
		}
	}
	if got := e.Stats().Errors; got != int64(len(cases)) {
		t.Fatalf("errors = %d, want %d", got, len(cases))
	}
}
