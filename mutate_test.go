package dsd_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	dsd "repro"
)

// randomBatch builds a randomized mutation batch against g: some existing
// edges deleted, some absent pairs inserted (occasionally growing the
// vertex set), plus a few deliberate no-ops.
func randomBatch(g *dsd.Graph, rng *rand.Rand) dsd.Mutation {
	var all [][2]int
	g.Edges(func(u, v int) { all = append(all, [2]int{u, v}) })
	var m dsd.Mutation
	for _, e := range all {
		if rng.Intn(6) == 0 {
			m.Delete = append(m.Delete, e)
		}
	}
	n := g.N()
	for i := 0; i < n/2+2; i++ {
		u, v := rng.Intn(n+1), rng.Intn(n+1) // n reachable: may grow the graph
		m.Insert = append(m.Insert, [2]int{u, v})
	}
	// Deliberate no-ops: a self-loop insert and a delete of an edge the
	// batch just deleted.
	m.Insert = append(m.Insert, [2]int{0, 0})
	if len(m.Delete) > 0 {
		m.Delete = append(m.Delete, m.Delete[0])
	}
	return m
}

// rebuild constructs a fresh graph holding exactly g's edge set — the
// cold-rebuild reference a mutated solver must match bit-exactly.
func rebuild(g *dsd.Graph) *dsd.Graph {
	var edges [][2]int
	g.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	return dsd.FromEdges(g.N(), edges)
}

func sameDensity(t *testing.T, label string, got, want *dsd.Result) {
	t.Helper()
	if got.Density.Cmp(want.Density) != 0 || got.Density.Num != want.Density.Num || got.Density.Den != want.Density.Den {
		t.Fatalf("%s: density %d/%d, want %d/%d", label,
			got.Density.Num, got.Density.Den, want.Density.Num, want.Density.Den)
	}
	if got.Mu != want.Mu {
		t.Fatalf("%s: µ = %d, want %d", label, got.Mu, want.Mu)
	}
}

// TestMutateMatchesRebuild is the equivalence suite gating the mutable
// graph subsystem: for many random graphs, motifs, and randomized
// mutation batches, solving after Mutate must match an independent
// rebuild-then-solve bit-exactly — warm (the mutated solver carries the
// previous solve's memo) and cold (a fresh solver on the mutated graph's
// edge set). Densities compare as exact rationals and every witness must
// verify on the graph it was computed against.
func TestMutateMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 15; seed++ {
		for _, h := range []int{2, 3} {
			rng := rand.New(rand.NewSource(seed*100 + int64(h)))
			g := dsd.GenerateGNM(24+int(seed), 70+3*int(seed), seed)
			solver := dsd.NewSolver(g)
			q := dsd.Query{H: h}

			before, err := solver.Solve(ctx, q) // warms the memo pre-mutation
			if err != nil {
				t.Fatalf("seed %d h=%d: pre-mutation solve: %v", seed, h, err)
			}

			batch := randomBatch(g, rng)
			d, err := solver.Mutate(ctx, batch)
			if err != nil {
				t.Fatalf("seed %d h=%d: Mutate: %v", seed, h, err)
			}
			if d.Version != 2 {
				t.Fatalf("seed %d h=%d: version = %d, want 2", seed, h, d.Version)
			}

			warm, err := solver.Solve(ctx, q)
			if err != nil {
				t.Fatalf("seed %d h=%d: warm post-mutation solve: %v", seed, h, err)
			}
			ref := rebuild(solver.Graph())
			cold, err := dsd.NewSolver(ref).Solve(ctx, q)
			if err != nil {
				t.Fatalf("seed %d h=%d: cold rebuild solve: %v", seed, h, err)
			}
			sameDensity(t, "warm vs cold", warm, cold)
			p := dsd.Clique(h)
			if err := dsd.VerifyResult(solver.Graph(), p, warm, true); err != nil {
				t.Fatalf("seed %d h=%d: warm witness: %v", seed, h, err)
			}
			if err := dsd.VerifyResult(ref, p, cold, true); err != nil {
				t.Fatalf("seed %d h=%d: cold witness: %v", seed, h, err)
			}

			// The pre-mutation version stays queryable and answers exactly
			// as before the mutation.
			pinned, err := solver.Solve(ctx, dsd.Query{H: h, Version: 1})
			if err != nil {
				t.Fatalf("seed %d h=%d: pinned solve: %v", seed, h, err)
			}
			sameDensity(t, "pinned v1 vs pre-mutation", pinned, before)
			if err := dsd.VerifyResult(g, p, pinned, true); err != nil {
				t.Fatalf("seed %d h=%d: pinned witness: %v", seed, h, err)
			}
		}
	}
}

// TestMutateSequenceMatchesRebuild chains several batches and checks the
// head answer after each against a cold rebuild — the incremental memo
// must not drift as versions accumulate.
func TestMutateSequenceMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	g := dsd.GenerateGNM(30, 90, 42)
	solver := dsd.NewSolver(g)
	q := dsd.Query{H: 3}
	if _, err := solver.Solve(ctx, q); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		if _, err := solver.Mutate(ctx, randomBatch(solver.Graph(), rng)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		warm, err := solver.Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cold, err := dsd.NewSolver(rebuild(solver.Graph())).Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sameDensity(t, "sequence step", warm, cold)
	}
	if solver.Version() != 6 {
		t.Fatalf("head version = %d, want 6", solver.Version())
	}
}

// TestAnchoredAfterApplyMatchesRebuild chains Mutate batches on a Solver
// whose every version answered an anchored query first (so each parent
// memoized its classical cores), and checks each head's anchored answer
// against a cold rebuild: a version computes its own classical cores
// instead of inheriting its parent's.
func TestAnchoredAfterApplyMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	solver := dsd.NewSolver(dsd.GenerateGNM(40, 150, 7))
	q := dsd.Query{Anchors: []int32{0, 3}}
	for step := 0; step <= 5; step++ {
		if step > 0 {
			if _, err := solver.Mutate(ctx, randomBatch(solver.Graph(), rng)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		warm, err := solver.Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref := rebuild(solver.Graph())
		cold, err := dsd.NewSolver(ref).Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sameDensity(t, "anchored after Mutate", warm, cold)
		if warm.Stats.ReusedDecomposition {
			t.Fatalf("step %d: the first anchored query on a version reused classical cores", step)
		}
		if again, err := solver.Solve(ctx, q); err != nil || !again.Stats.ReusedDecomposition {
			t.Fatalf("step %d: a second anchored query did not reuse the version's cores (err %v)", step, err)
		}
		if err := dsd.VerifyResult(solver.Graph(), dsd.Clique(2), warm, true); err != nil {
			t.Fatalf("step %d: witness: %v", step, err)
		}
		for _, a := range q.Anchors {
			if !slices.Contains(warm.Vertices, a) {
				t.Fatalf("step %d: witness %v misses anchor %d", step, warm.Vertices, a)
			}
		}
	}
	if solver.Version() != 6 {
		t.Fatalf("head version = %d, want 6", solver.Version())
	}
}

func TestMutateNoOpBatchKeepsVersion(t *testing.T) {
	ctx := context.Background()
	g := dsd.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	s := dsd.NewSolver(g)
	d, err := s.Mutate(ctx, dsd.Mutation{
		Insert: [][2]int{{0, 1}, {1, 1}, {-1, 2}},
		Delete: [][2]int{{0, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Changed() || d.Version != 1 {
		t.Fatalf("no-op batch: delta %+v, want unchanged version 1", d)
	}
	if d.SkippedInserts != 3 || d.SkippedDeletes != 1 {
		t.Fatalf("skip counts: %+v", d)
	}
	if s.Version() != 1 || len(s.Versions()) != 1 {
		t.Fatalf("version advanced on no-op: head %d, versions %v", s.Version(), s.Versions())
	}
}

func TestMutateDeltaCounts(t *testing.T) {
	ctx := context.Background()
	s := dsd.NewSolver(dsd.FromEdges(3, [][2]int{{0, 1}, {1, 2}}))
	d, err := s.Mutate(ctx, dsd.Mutation{
		Delete: [][2]int{{0, 1}},
		Insert: [][2]int{{0, 2}, {2, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != 2 || d.Inserted != 2 || d.Deleted != 1 || d.NewVertices != 2 || d.N != 5 || d.M != 3 {
		t.Fatalf("delta %+v", d)
	}
}

// TestMutateDeleteBeforeInsert: a batch listing the same edge in both
// halves ends with the edge present (deletes apply first).
func TestMutateDeleteBeforeInsert(t *testing.T) {
	ctx := context.Background()
	s := dsd.NewSolver(dsd.FromEdges(3, [][2]int{{0, 1}, {1, 2}}))
	d, err := s.Mutate(ctx, dsd.Mutation{
		Delete: [][2]int{{0, 1}},
		Insert: [][2]int{{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Graph().HasEdge(0, 1) {
		t.Fatal("edge {0,1} missing after delete+insert batch")
	}
	if d.Inserted != 1 || d.Deleted != 1 {
		t.Fatalf("delta %+v", d)
	}
}

func TestRetentionEvictsOldVersions(t *testing.T) {
	ctx := context.Background()
	s := dsd.NewSolver(dsd.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}))
	s.SetRetain(2)
	for i := 0; i < 4; i++ {
		if _, err := s.Mutate(ctx, dsd.Mutation{Insert: [][2]int{{i, i + 4}}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Version() != 5 {
		t.Fatalf("head = %d, want 5", s.Version())
	}
	vers := s.Versions()
	if len(vers) != 2 || vers[0] != 4 || vers[1] != 5 {
		t.Fatalf("retained versions = %v, want [4 5]", vers)
	}
	if _, err := s.Solve(ctx, dsd.Query{Version: 2}); err == nil || !strings.Contains(err.Error(), "not retained") {
		t.Fatalf("evicted-version solve error = %v, want 'not retained'", err)
	}
	if _, err := s.At(2); err == nil {
		t.Fatal("At(2) succeeded for an evicted version")
	}
	if _, err := s.Solve(ctx, dsd.Query{Version: 4}); err != nil {
		t.Fatalf("retained version 4 unsolvable: %v", err)
	}
}

func TestSnapshotPinsVersion(t *testing.T) {
	ctx := context.Background()
	g := dsd.GenerateGNM(20, 50, 9)
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3}
	want, err := s.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.At(0) // pin the current head (version 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 1 {
		t.Fatalf("snapshot version = %d, want 1", snap.Version())
	}
	s.SetRetain(1)
	for i := 0; i < 3; i++ {
		if _, err := s.Mutate(ctx, dsd.Mutation{Insert: [][2]int{{i, 19 - i}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Version 1 is out of the retention window now, but the snapshot holds
	// its state directly and keeps answering the pre-mutation graph.
	if _, err := s.At(1); err == nil {
		t.Fatal("At(1) succeeded after eviction")
	}
	got, err := snap.Solve(ctx, q)
	if err != nil {
		t.Fatalf("snapshot solve after eviction: %v", err)
	}
	sameDensity(t, "snapshot vs original", got, want)
	var final dsd.Answer
	streamed, err := snap.StreamFunc(ctx, q, func(a dsd.Answer) { final = a })
	if err != nil {
		t.Fatalf("snapshot stream after eviction: %v", err)
	}
	sameDensity(t, "snapshot stream vs original", streamed, want)
	if !final.Final || final.Density.Cmp(want.Density) != 0 {
		t.Fatalf("snapshot stream ended on %+v, want a final answer at %v", final, want.Density)
	}
	if snap.Graph().M() != g.M() {
		t.Fatalf("snapshot graph m=%d, want %d", snap.Graph().M(), g.M())
	}
	if _, err := snap.Solve(ctx, dsd.Query{H: 3, Version: 99}); err == nil {
		t.Fatal("snapshot answered for a different version")
	}
	if _, err := snap.StreamFunc(ctx, dsd.Query{H: 3, Version: 99}, func(dsd.Answer) {}); err == nil {
		t.Fatal("snapshot streamed for a different version")
	}
}

func TestQueryVersionValidation(t *testing.T) {
	s := dsd.NewSolver(dsd.FromEdges(3, [][2]int{{0, 1}, {1, 2}}))
	if _, err := s.Solve(context.Background(), dsd.Query{Version: -1}); err == nil {
		t.Fatal("negative Version accepted")
	}
	if _, err := s.Solve(context.Background(), dsd.Query{Version: 7}); err == nil {
		t.Fatal("unknown Version accepted")
	}
	// Version participates in the cache key only when pinned.
	base := dsd.Query{H: 3}
	pinned := dsd.Query{H: 3, Version: 1}
	bk, _ := base.Normalized()
	pk, _ := pinned.Normalized()
	if bk.Key() == pk.Key() {
		t.Fatal("pinned and head queries share a key")
	}
	head := dsd.Query{H: 3, Version: 0}
	hk, _ := head.Normalized()
	if bk.Key() != hk.Key() {
		t.Fatal("Version 0 changed the key")
	}
}

// TestMutateConcurrentWithQueries hammers one solver with concurrent
// mutations and queries (pinned and head) under the race detector: every
// pinned query must answer its version exactly, and mutations must never
// corrupt an in-flight read.
func TestMutateConcurrentWithQueries(t *testing.T) {
	ctx := context.Background()
	g := dsd.GenerateGNM(24, 70, 3)
	s := dsd.NewSolver(g)
	q := dsd.Query{H: 3}
	before, err := s.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.At(1)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 8)
	// Mutator goroutine: a stream of small batches.
	go func() {
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 20; i++ {
			m := dsd.Mutation{Insert: [][2]int{{rng.Intn(24), rng.Intn(24)}}}
			if rng.Intn(2) == 0 {
				m.Delete = [][2]int{{rng.Intn(24), rng.Intn(24)}}
			}
			if _, err := s.Mutate(ctx, m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Reader goroutines: head solves plus pinned version-1 solves.
	for r := 0; r < 3; r++ {
		go func() {
			for i := 0; i < 10; i++ {
				if _, err := s.Solve(ctx, q); err != nil {
					done <- err
					return
				}
				res, err := snap.Solve(ctx, q)
				if err != nil {
					done <- err
					return
				}
				if res.Density.Cmp(before.Density) != 0 {
					done <- errDensityDrift
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles the head must still match a cold rebuild.
	warm, err := s.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := dsd.NewSolver(rebuild(s.Graph())).Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameDensity(t, "post-concurrency head", warm, cold)
}

var errDensityDrift = &driftError{}

type driftError struct{}

func (*driftError) Error() string { return "pinned snapshot density drifted under concurrent mutation" }

// TestBoundedCoreLocateMatchesRebuild forces the upper-bound locate path
// — the mutated Solver's fastest mode, where CoreExact locates on core
// numbers carried from the parent version instead of re-peeling — and
// checks it against a cold rebuild. Delete-only batches carry the bound
// with zero inflation, so the path is guaranteed taken (asserted via
// Stats.BoundedCores); densities must agree bit-exactly (the witness may
// be a different member of an exact tie, so only its verification is
// required). A later peel-family query must ignore the bound, peel for
// real, and flip subsequent core-exact solves back to the exact
// decomposition.
func TestBoundedCoreLocateMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 8; seed++ {
		for _, h := range []int{2, 3, 4} {
			g := dsd.GenerateGNM(30+int(seed), 110+5*int(seed), seed)
			solver := dsd.NewSolver(g)
			q := dsd.Query{H: h}
			if _, err := solver.Solve(ctx, q); err != nil {
				t.Fatalf("seed %d h=%d: warmup: %v", seed, h, err)
			}
			var batch dsd.Mutation
			i := 0
			g.Edges(func(u, v int) {
				if i%7 == 0 {
					batch.Delete = append(batch.Delete, [2]int{u, v})
				}
				i++
			})
			if _, err := solver.Mutate(ctx, batch); err != nil {
				t.Fatalf("seed %d h=%d: apply: %v", seed, h, err)
			}
			warm, err := solver.Solve(ctx, q)
			if err != nil {
				t.Fatalf("seed %d h=%d: bounded solve: %v", seed, h, err)
			}
			if !warm.Stats.BoundedCores {
				t.Fatalf("seed %d h=%d: delete-only batch did not take the bounded-core path", seed, h)
			}
			ref := rebuild(solver.Graph())
			cold, err := dsd.NewSolver(ref).Solve(ctx, q)
			if err != nil {
				t.Fatalf("seed %d h=%d: cold rebuild: %v", seed, h, err)
			}
			// Exact value equality (cross-multiplied int64s, no floats).
			// The Num/Den pair itself may differ: the bounded plan can
			// return a different member of an exact tie (e.g. 7 triangles
			// on 7 vertices vs 4 on 4, both density 1).
			if warm.Density.Cmp(cold.Density) != 0 {
				t.Fatalf("seed %d h=%d: bounded density %d/%d, rebuild %d/%d", seed, h,
					warm.Density.Num, warm.Density.Den, cold.Density.Num, cold.Density.Den)
			}
			p := dsd.Clique(h)
			if err := dsd.VerifyResult(solver.Graph(), p, warm, true); err != nil {
				t.Fatalf("seed %d h=%d: bounded witness: %v", seed, h, err)
			}

			// A peel query must not read the bound: PeelApp's answer is
			// defined by this graph's own peel order.
			peel, err := solver.Solve(ctx, dsd.Query{H: h, Algo: dsd.AlgoPeel})
			if err != nil {
				t.Fatalf("seed %d h=%d: peel: %v", seed, h, err)
			}
			peelCold, err := dsd.NewSolver(ref).Solve(ctx, dsd.Query{H: h, Algo: dsd.AlgoPeel})
			if err != nil {
				t.Fatalf("seed %d h=%d: cold peel: %v", seed, h, err)
			}
			sameDensity(t, "peel on mutated version vs rebuild", peel, peelCold)

			// The peel memoized the exact decomposition; core-exact now
			// prefers it over the carried bound.
			again, err := solver.Solve(ctx, q)
			if err != nil {
				t.Fatalf("seed %d h=%d: re-solve: %v", seed, h, err)
			}
			if again.Stats.BoundedCores {
				t.Fatalf("seed %d h=%d: exact decomposition available but bounded path taken", seed, h)
			}
			if !again.Stats.ReusedDecomposition {
				t.Fatalf("seed %d h=%d: exact decomposition not reused", seed, h)
			}
			if again.Density.Cmp(warm.Density) != 0 {
				t.Fatalf("seed %d h=%d: exact-dec re-solve density differs from bounded solve", seed, h)
			}
		}
	}
}

// TestBoundedCoreChainsAcrossBatches: the bound must survive several
// consecutive delete batches (each derives the next from the last) and
// stay exact throughout.
func TestBoundedCoreChainsAcrossBatches(t *testing.T) {
	ctx := context.Background()
	g := dsd.GenerateGNM(40, 200, 9)
	solver := dsd.NewSolver(g)
	q := dsd.Query{H: 3}
	if _, err := solver.Solve(ctx, q); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		var batch dsd.Mutation
		i := 0
		solver.Graph().Edges(func(u, v int) {
			if i%9 == step {
				batch.Delete = append(batch.Delete, [2]int{u, v})
			}
			i++
		})
		if _, err := solver.Mutate(ctx, batch); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		warm, err := solver.Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !warm.Stats.BoundedCores {
			t.Fatalf("step %d: bound not carried", step)
		}
		cold, err := dsd.NewSolver(rebuild(solver.Graph())).Solve(ctx, q)
		if err != nil {
			t.Fatalf("step %d: cold: %v", step, err)
		}
		if warm.Density.Cmp(cold.Density) != 0 {
			t.Fatalf("step %d: bounded density %d/%d, rebuild %d/%d", step,
				warm.Density.Num, warm.Density.Den, cold.Density.Num, cold.Density.Den)
		}
		if err := dsd.VerifyResult(solver.Graph(), dsd.Clique(3), warm, true); err != nil {
			t.Fatalf("step %d: witness: %v", step, err)
		}
	}
}
