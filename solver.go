package dsd

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/psicore"
)

// QueryStats is the per-run instrumentation Solve returns on
// Result.Stats: phase timings (Decompose, Total), flow-solve counts
// (Iterations, FlowNodes), Exact's Greed++ counters (PreSolveIters,
// PreSolveSkips; 0 on core-exact runs), and the reuse flags
// (ReusedDecomposition, ReusedDegrees) that prove a warm query skipped
// recomputation. The dsdd v2 wire encoding serializes it verbatim.
type QueryStats = core.Stats

// DefaultRetainVersions is how many graph versions a Solver keeps
// addressable by default (the head plus its most recent predecessors).
// Queries pinned to an evicted version fail loudly; SetRetain tunes the
// window.
const DefaultRetainVersions = 8

// Solver answers densest-subgraph queries on one graph through the
// single entrypoint Solve, memoizing the expensive per-(graph,Ψ) state —
// whole-graph Ψ-degree vectors, (k,Ψ)-core and nucleus decompositions,
// the classical k-core of anchored queries — behind a mutex, so repeated
// queries with the same Ψ skip the recomputation entirely. The dsdd
// service keeps one Solver per registered graph; one-shot callers pay
// nothing for the machinery (a cold Solver computes exactly what the
// bare algorithms would).
//
// The graph is mutable through Apply: each edge insert/delete batch
// produces a new immutable version (copy-on-write — untouched adjacency
// is shared), the memo is repaired incrementally instead of discarded
// (see Apply), and in-flight queries keep reading the version they
// started on. Query.Version pins a query to a retained version; 0 means
// the current head.
//
// A Solver is safe for concurrent use. Graphs handed to NewSolver must
// not be mutated externally (Graphs are immutable by construction; all
// mutation goes through Apply).
type Solver struct {
	// applyMu serializes Apply: mutations are rare relative to queries
	// and a total order of versions is the whole point.
	applyMu sync.Mutex

	vmu    sync.RWMutex
	head   *verState
	hist   map[Version]*verState
	retain int
}

// verState is one immutable graph version with its memoized per-Ψ state.
// The graph and version number never change after construction; the memo
// fields fill in lazily under their locks.
type verState struct {
	ver Version
	g   *Graph

	mu  sync.Mutex
	psi map[string]*psiState

	kmu sync.Mutex
	kc  *kcore.Decomposition
}

// psiState is the memoized per-Ψ state. Each kind is computed at most
// once per version, on first use, under the state's own lock — same-Ψ
// queries serialize on the first computation instead of duplicating it;
// different Ψ never contend.
type psiState struct {
	o motif.Oracle

	mu  sync.Mutex
	dec *psicore.Decomposition // peel (k,Ψ)-core decomposition of the whole graph
	nuc *psicore.Decomposition // nucleus decomposition (AlgoNucleus)
	// within is the (k,Ψ)-core decomposition restricted to the classical
	// core that can hold a core-exact answer (psicore.DecomposeWithin,
	// Floor > 0). Its core numbers below Floor are not exact, so only
	// core-exact reads it; the peel-order family and Apply's upper-bound
	// carry read dec alone.
	within  *psicore.Decomposition
	total   int64   // µ(G,Ψ)
	deg     []int64 // whole-graph Ψ-degrees
	haveDeg bool
	// ub is an upper-bound core decomposition carried across Apply
	// (psicore.UpperBound over the parent version's cores): core-exact
	// queries locate on it without re-peeling this version, which is
	// sound because CoreExact only ever uses core numbers to prune
	// (core.Options.DecUpperBound). It is NOT a peel of this graph — the
	// peel-order family (AlgoPeel/AlgoInc, nucleus) never reads it, and a
	// real peel, once computed into dec, supersedes it.
	ub *psicore.Decomposition
	// witness is the best exact witness a core-exact run on this Ψ has
	// produced — carried across Apply so the next search starts from the
	// old certificate (its density is re-evaluated on the new graph
	// before use, so a stale witness can only under-seed, never mislead).
	witness []int32
}

// NewSolver returns a Solver over g with an empty memo, at Version 1.
func NewSolver(g *Graph) *Solver {
	head := &verState{ver: 1, g: g, psi: make(map[string]*psiState)}
	return &Solver{
		head:   head,
		hist:   map[Version]*verState{1: head},
		retain: DefaultRetainVersions,
	}
}

// Graph returns the graph of the Solver's current head version.
func (s *Solver) Graph() *Graph {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	return s.head.g
}

// Version returns the Solver's current head version. Versions start at 1
// and advance by one per effective Apply.
func (s *Solver) Version() Version {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	return s.head.ver
}

// Versions lists the retained versions in ascending order — the set
// Query.Version and At may pin.
func (s *Solver) Versions() []Version {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	out := make([]Version, 0, len(s.hist))
	for v := range s.hist {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetRetain bounds how many versions the Solver keeps addressable
// (minimum 1: the head always is). Older versions are evicted as Apply
// advances the head; queries already running on an evicted version are
// unaffected (they hold their version's state directly).
func (s *Solver) SetRetain(n int) {
	if n < 1 {
		n = 1
	}
	s.vmu.Lock()
	defer s.vmu.Unlock()
	s.retain = n
	s.pruneLocked()
}

// pruneLocked evicts versions beyond the retention window. Caller holds
// vmu.
func (s *Solver) pruneLocked() {
	for v := range s.hist {
		if v <= s.head.ver-Version(s.retain) {
			delete(s.hist, v)
		}
	}
}

// state resolves a query's version pin: 0 is the head, anything else
// must be retained.
func (s *Solver) state(v Version) (*verState, error) {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	if v == 0 {
		return s.head, nil
	}
	st, ok := s.hist[v]
	if !ok {
		return nil, fmt.Errorf("dsd: version %d not retained (head is %d, retention %d)", v, s.head.ver, s.retain)
	}
	return st, nil
}

// psiFor returns (creating if needed) the memo cell for o's motif.
func (vs *verState) psiFor(o motif.Oracle) *psiState {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	st, ok := vs.psi[o.Name()]
	if !ok {
		st = &psiState{o: o}
		vs.psi[o.Name()] = st
	}
	return st
}

// decomposition returns the memoized (k,Ψ)-core decomposition, computing
// it on first use. ctx aborts a compute but never poisons the memo: an
// aborted computation is simply retried by the next caller. When the
// state already holds the Ψ-degree vector — memoized by a degree-family
// query, or maintained incrementally across Apply — the peel is seeded
// from it and the enumeration-heavy counting prefix is skipped; the
// result is bit-identical either way (psicore.DecomposeSeeded).
func (st *psiState) decomposition(ctx context.Context, g *Graph, workers int) (*psicore.Decomposition, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.decomposeLocked(ctx, g, workers)
}

// decomposeLocked is decomposition with st.mu held.
func (st *psiState) decomposeLocked(ctx context.Context, g *Graph, workers int) (*psicore.Decomposition, bool, error) {
	if st.dec != nil {
		return st.dec, true, nil
	}
	if !st.haveDeg {
		// Memoize the Ψ-degree vector itself, not just the peel built from
		// it: degree-family queries reuse it directly, and Apply maintains
		// it per edge so post-mutation decompositions skip this counting
		// entirely.
		if pc, ok := st.o.(motif.ParallelCounter); ok && workers > 1 {
			st.total, st.deg = pc.CountAndDegreesParallel(g, workers)
		} else {
			st.total, st.deg = st.o.CountAndDegrees(g)
		}
		st.haveDeg = true
	}
	d, err := psicore.DecomposeSeeded(ctx, g, st.o, st.total, st.deg)
	if err != nil {
		return nil, false, err
	}
	st.dec = d
	return d, false, nil
}

// decRequest says which decompositions a core-exact caller may locate
// in (see coreExactDec).
type decRequest struct {
	workers int
	// restrict admits a decomposition restricted to the classical core
	// that can hold the answer. It follows Pruning1, the paper's pruning
	// by a lower bound, so the ablations without it peel the whole graph.
	restrict bool
	// bound admits the upper-bound decomposition carried across Apply.
	bound bool
	// classical is g's classical core decomposition when the caller
	// already holds one; with nil a restriction reads the version's
	// memoized one, or finds the high cores it needs without peeling all
	// of g (psicore.DecomposeWithin).
	classical *kcore.Decomposition
}

// coreExactRequest is the decRequest of a core-exact query run with
// opts. Solve and the stream take the carried upper bound (bound); the
// component surface does not, because the bound loosens with every
// batch applied since the last peel and a plan located on it hands out
// larger components.
func coreExactRequest(opts core.Options, bound bool) decRequest {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	return decRequest{workers: workers, restrict: opts.Pruning1, bound: bound}
}

// memoDecLocked returns the memoized decomposition req admits, in
// coreExactDec's order, or nil. Caller holds st.mu.
func (st *psiState) memoDecLocked(req decRequest) (dec *psicore.Decomposition, bounded bool) {
	switch {
	case st.dec != nil:
		return st.dec, false
	case req.bound && st.ub != nil:
		return st.ub, true
	case req.restrict && st.within != nil:
		return st.within, false
	}
	return nil, false
}

// coreExactDec returns the decomposition a core-exact query on version
// vs locates in; Solve, the stream, PlanComponents and SolveComponent
// all take it from here. In order of preference: the exact memoized
// decomposition; else, if req.bound, the upper-bound decomposition
// carried across Apply (bounded=true — the caller must set
// core.Options.DecUpperBound); else, if req.restrict, the memoized
// restricted decomposition, or for an h-clique (any h) whose whole-graph
// Ψ-degree vector is not yet known, a new one (psicore.DecomposeWithin);
// else a peel of the whole version, memoized exactly like decomposition
// does. For h ≥ 3 the restriction saves mostly the count; for edges,
// whose count is the degree vector, it saves the peel. Once the degree
// vector is in hand (memoized by a degree-family query, or maintained
// across Apply), the whole version is peeled instead, because that peel
// is what the peel family reuses and Apply carries as upper bounds. The
// restricted result is kept in within, never in dec.
func (st *psiState) coreExactDec(ctx context.Context, vs *verState, req decRequest) (dec *psicore.Decomposition, reused, bounded bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if dec, bounded := st.memoDecLocked(req); dec != nil {
		return dec, true, bounded, nil
	}
	if req.restrict && !st.haveDeg {
		kc := req.classical
		if kc == nil {
			kc = vs.memoKcore()
		}
		d, err := psicore.DecomposeWithin(ctx, vs.g, st.o, kc, req.workers)
		if err != nil {
			return nil, false, false, err
		}
		if d != nil {
			st.within = d
			return d, false, false, nil
		}
	}
	dec, reused, err = st.decomposeLocked(ctx, vs.g, req.workers)
	return dec, reused, false, err
}

// tracedCoreExactDec is coreExactDec under a decompose span, which
// records whether the memo served it, whether it is the carried upper
// bound, and how much of the graph a restricted decomposition counted:
// the classical level x and |X|.
func (st *psiState) tracedCoreExactDec(ctx context.Context, vs *verState, req decRequest) (dec *psicore.Decomposition, reused, bounded bool, err error) {
	dsp := obs.StartFromContext(ctx, obs.SpanDecompose)
	defer dsp.End()
	dec, reused, bounded, err = st.coreExactDec(ctx, vs, req)
	if reused {
		dsp.SetAttr("reused", "true")
	}
	if bounded {
		dsp.SetAttr("bounded", "true")
	}
	if err == nil && dec.Floor > 0 {
		dsp.SetInt("classical_level", int64(dec.Level))
		dsp.SetInt("counted_vertices", int64(len(dec.Order)))
	}
	return dec, reused, bounded, err
}

// nucleus returns the memoized nucleus decomposition.
func (st *psiState) nucleus(g *Graph) (*psicore.Decomposition, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.nuc != nil {
		return st.nuc, true
	}
	st.nuc = psicore.NucleusDecompose(g, st.o)
	return st.nuc, false
}

// degrees returns the memoized whole-graph Ψ-degree vector. Callers must
// treat the slice as read-only (the algorithms taking it copy it).
func (st *psiState) degrees(g *Graph) (int64, []int64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.haveDeg {
		return st.total, st.deg, true
	}
	st.total, st.deg = st.o.CountAndDegrees(g)
	st.haveDeg = true
	return st.total, st.deg, false
}

// seedWitness returns a copy of the state's carried witness (nil when
// none is known).
func (st *psiState) seedWitness() []int32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.witness) == 0 {
		return nil
	}
	return append([]int32(nil), st.witness...)
}

// recordWitness stores an exact witness for future seeding.
func (st *psiState) recordWitness(vs []int32) {
	if len(vs) == 0 {
		return
	}
	st.mu.Lock()
	st.witness = append([]int32(nil), vs...)
	st.mu.Unlock()
}

// kcoreDec returns the memoized classical k-core decomposition.
func (vs *verState) kcoreDec() (*kcore.Decomposition, bool) {
	vs.kmu.Lock()
	defer vs.kmu.Unlock()
	if vs.kc != nil {
		return vs.kc, true
	}
	vs.kc = kcore.Decompose(vs.g)
	return vs.kc, false
}

// memoKcore returns the version's memoized classical k-core
// decomposition, or nil when no anchored query has computed it.
func (vs *verState) memoKcore() *kcore.Decomposition {
	vs.kmu.Lock()
	defer vs.kmu.Unlock()
	return vs.kc
}

// classical returns g's classical core decomposition when Ψ's
// algorithms read all of it (h-cliques with h ≥ 3, see
// psicore.UsesClassicalCores), and nil otherwise: the version's memoized
// one when an anchored query computed it, else a fresh one left out of
// the memo. CoreApp's γ bounds read every vertex's core number, so
// CoreApp and the stream's CoreApp rung take it from here; a core-exact
// restriction needs only the high cores and finds them itself when the
// memo holds none (psicore.DecomposeWithin).
func (vs *verState) classical(o motif.Oracle) *kcore.Decomposition {
	if !psicore.UsesClassicalCores(o) {
		return nil
	}
	if kc := vs.memoKcore(); kc != nil {
		return kc
	}
	return kcore.Decompose(vs.g)
}

// Solve answers q on the Solver's graph: the one entrypoint behind which
// every algorithm and problem variant dispatches. Query.Version selects
// the graph version answered (0 = current head); the result's Stats is
// the run's QueryStats; on a warm Solver its ReusedDecomposition /
// ReusedDegrees flags report which memoized state served the query.
//
// Cancellation contract: Solve returns ctx.Err() as soon as ctx is
// cancelled or times out. For AlgoCoreExact the cancellation is
// cooperative — the decomposition and every component search poll ctx,
// so the computation itself stops within one flow solve. Every other
// algorithm is not preemptible mid-run: Solve still returns promptly,
// but the discarded computation finishes on a background goroutine
// before being dropped. Such an orphan still populates the Solver's
// memo, so on a live Solver the work is recovered by the next same-Ψ
// query rather than wasted.
//
// Graceful degradation: a core-exact Query carrying a Deadline or Gap
// budget may return a Result with Degraded set — the best certified
// approximation the engine held when the budget ran out, with Bound
// bracketing the true optimum — instead of an error. Degraded results
// still seed the witness memo (seeds are always re-evaluated), but they
// are approximations: callers caching answers must key them apart from
// exact ones (Query.Key already does).
func (s *Solver) Solve(ctx context.Context, q Query) (*Result, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	vs, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	return s.solveOn(ctx, nq, o, vs)
}

// solveOn answers a normalized query on one version's state (shared by
// Solve and Snapshot.Solve).
func (s *Solver) solveOn(ctx context.Context, nq Query, o motif.Oracle, vs *verState) (*Result, error) {
	// Root the run's trace (a no-op chain when ctx carries no tracer; see
	// internal/obs). Child phases — decompose, locate, per-component
	// search, flow — attach under this span, and the finished
	// tree rides out on Stats.Trace.
	tr, parent := obs.FromContext(ctx)
	sp := tr.Start(obs.SpanSolve, parent)
	if sp != nil {
		sp.SetAttr("algo", string(nq.Algo))
		sp.SetAttr("psi", o.Name())
		sp.SetInt("version", int64(vs.ver))
		ctx = obs.WithSpan(ctx, tr, sp)
	}
	start := time.Now()
	res, err := s.dispatch(ctx, nq, o, vs)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Stats.Total = time.Since(start)
	if tr != nil {
		res.Stats.Trace = tr.Snapshot()
	}
	return res, nil
}

// dispatch routes a normalized query to its algorithm, on one version's
// graph and memo.
func (s *Solver) dispatch(ctx context.Context, q Query, o motif.Oracle, vs *verState) (*Result, error) {
	g := vs.g
	switch q.Algo {
	case AlgoCoreExact:
		return await(ctx, func() (*Result, error) {
			st := vs.psiFor(o)
			opts := q.coreOptions()
			decStart := time.Now()
			dec, reused, bounded, err := st.tracedCoreExactDec(ctx, vs, coreExactRequest(opts, true))
			if err != nil {
				return nil, err
			}
			decTime := time.Since(decStart)
			opts.DecUpperBound = bounded
			// Warm-start from the previous solve's certificate (carried
			// across Apply): PlanCoreExact re-evaluates the witness's
			// exact density on this graph before trusting it.
			opts.SeedWitness = st.seedWitness()
			res, err := core.CoreExact(ctx, g, o, opts, dec)
			if err != nil {
				return nil, err
			}
			st.recordWitness(res.Vertices)
			stampDecompose(res, reused, decTime)
			res.Stats.BoundedCores = bounded
			return res, nil
		})
	case AlgoExact:
		return await(ctx, func() (*Result, error) { return core.Exact(g, o, false) })
	case AlgoPeel:
		return await(ctx, func() (*Result, error) {
			st := vs.psiFor(o)
			decStart := time.Now()
			// Memo computes run detached: an orphaned run completes the
			// memo for the next query instead of discarding it.
			dec, reused, err := st.decomposition(context.Background(), g, 1)
			if err != nil {
				return nil, err
			}
			res := core.PeelApp(g, o, dec)
			stampDecompose(res, reused, time.Since(decStart))
			return res, nil
		})
	case AlgoInc:
		return await(ctx, func() (*Result, error) {
			st := vs.psiFor(o)
			decStart := time.Now()
			dec, reused, err := st.decomposition(context.Background(), g, 1)
			if err != nil {
				return nil, err
			}
			res := core.IncApp(g, o, dec)
			stampDecompose(res, reused, time.Since(decStart))
			return res, nil
		})
	case AlgoCoreApp:
		// CoreApp's whole point is extracting the kmax-core top-down
		// without the full decomposition, so there is no per-Ψ state
		// worth memoizing for it; its clique γ bounds read the classical
		// cores (see classical).
		return await(ctx, func() (*Result, error) { return core.CoreApp(g, o, vs.classical(o)), nil })
	case AlgoNucleus:
		return await(ctx, func() (*Result, error) {
			st := vs.psiFor(o)
			decStart := time.Now()
			dec, reused := st.nucleus(g)
			res := core.Nucleus(g, o, dec)
			stampDecompose(res, reused, time.Since(decStart))
			return res, nil
		})
	case AlgoAnchored:
		return await(ctx, func() (*Result, error) {
			decStart := time.Now()
			dec, reused := vs.kcoreDec()
			res, err := core.QueryDensest(g, q.Anchors, dec)
			if err != nil {
				return nil, err
			}
			stampDecompose(res, reused, time.Since(decStart))
			return res, nil
		})
	case AlgoBatchPeel:
		return await(ctx, func() (*Result, error) {
			st := vs.psiFor(o)
			total, deg, reused := st.degrees(g)
			res, err := core.BatchPeel(g, o, q.Eps, total, deg)
			if err != nil {
				return nil, err
			}
			res.Stats.ReusedDegrees = reused
			return res, nil
		})
	case AlgoAtLeast:
		return await(ctx, func() (*Result, error) {
			st := vs.psiFor(o)
			total, deg, reused := st.degrees(g)
			res, err := core.PeelAppAtLeast(g, o, q.AtLeast, total, deg)
			if err != nil {
				return nil, err
			}
			res.Stats.ReusedDegrees = reused
			return res, nil
		})
	}
	return nil, fmt.Errorf("dsd: unknown algorithm %q", q.Algo)
}

// stampDecompose records on res whether the run's decomposition came out
// of the Solver's memo (Decompose is the compute time otherwise).
func stampDecompose(res *Result, reused bool, d time.Duration) {
	res.Stats.ReusedDecomposition = reused
	if reused {
		res.Stats.Decompose = 0
	} else {
		res.Stats.Decompose = d
	}
}

// awaitOrphans counts abandoned computations — runs whose caller's ctx
// ended first — that have since run to completion and been dropped. It
// exists so the non-preemptible algorithms' cancellation contract (see
// Solve) is observable: the orphan is guaranteed to finish and release
// its goroutine, and tests assert the counter advances instead of
// guessing at goroutine counts.
var awaitOrphans atomic.Int64

// AwaitOrphans reports how many abandoned computations (runs whose
// caller's ctx ended first; see Solve's cancellation contract) have run
// to completion and been dropped, process-wide. The dsdd /v1/stats
// endpoint exposes it: a steadily climbing value under load means
// callers are timing out on non-preemptible algorithms and the engine is
// paying for answers nobody receives.
func AwaitOrphans() int64 { return awaitOrphans.Load() }

// await runs fn on its own goroutine and returns its result, unless ctx
// ends first, in which case ctx.Err() wins and fn's eventual result is
// dropped (and counted in awaitOrphans once fn finishes). The mutex
// handshake makes the count exact — whichever side moves second sees the
// other's flag, so a run that completes concurrently with the
// cancellation is still counted exactly once.
func await(ctx context.Context, fn func() (*Result, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	var (
		mu                sync.Mutex
		finished, dropped bool
	)
	go func() {
		res, err := fn()
		done <- outcome{res, err}
		mu.Lock()
		finished = true
		if dropped {
			awaitOrphans.Add(1)
		}
		mu.Unlock()
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-ctx.Done():
		mu.Lock()
		dropped = true
		if finished {
			// fn beat the cancellation but the select still chose ctx:
			// the result is dropped all the same, and the worker already
			// checked dropped and saw false.
			awaitOrphans.Add(1)
		}
		mu.Unlock()
		return nil, ctx.Err()
	}
}
