package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/psicore"
)

// BenchSchema identifies the perf-suite report encoding. CI validates
// every emitted BENCH_*.json against it, so the perf trajectory the
// repository accumulates stays machine-readable across PRs.
const BenchSchema = "dsd-bench/v1"

// BenchReport is the JSON artifact of the perf suite (BENCH_*.json): one
// entry per measured case, serial ns/op always, plus the parallel and
// iterative arms for the algorithms that have them.
type BenchReport struct {
	Schema     string      `json:"schema"`
	Suite      string      `json:"suite"`
	Quick      bool        `json:"quick"`
	Workers    int         `json:"workers"`
	GoMaxProcs int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Cases      []BenchCase `json:"cases"`
	// FlowSolveReduction is Σ serial_iters / Σ iterative_flow_solves over
	// the cases with an iterative arm: how many fewer min-cut computations
	// the Greed++ pre-solver left the suite with, the headline of the
	// BENCH_3 trajectory point. Core-exact runs no pre-solve any more, so
	// it now reads 1.
	FlowSolveReduction float64 `json:"flow_solve_reduction,omitempty"`
	// ObsOverhead is the median, over every interleaved pair of runs of
	// the cases with an obs arm, of traced / untraced wall time: the cost
	// of running the engine under a live phase tracer relative to the
	// identical untraced configuration. CI gates it at ≤ 1.03 (tracing
	// must stay under 3%). ObsOverheadIQR is the interquartile range of
	// those ratios, the noise the median was read through, and ObsPairs
	// their number.
	ObsOverhead    float64 `json:"obs_overhead,omitempty"`
	ObsOverheadIQR float64 `json:"obs_overhead_iqr,omitempty"`
	ObsPairs       int     `json:"obs_pairs,omitempty"`
}

// BenchCase measures one (algorithm, motif, graph) cell.
type BenchCase struct {
	Name  string `json:"name"`
	Algo  string `json:"algo"`
	Motif string `json:"motif"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	// SerialNsOp is the serial engine's wall time per run.
	SerialNsOp int64 `json:"serial_ns_op"`
	// ParallelNsOp, Workers and Speedup describe the parallel arm; they
	// are present only for cases with a parallel engine.
	ParallelNsOp int64   `json:"parallel_ns_op,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	// SerialIters/ParallelIters count flow solves for the
	// exact algorithms: the parallel engine's speedup is algorithmic
	// (shared-bound aborts remove work), and these make it visible in
	// the artifact rather than only in wall time.
	SerialIters   int `json:"serial_iters,omitempty"`
	ParallelIters int `json:"parallel_iters,omitempty"`
	// The iterative arm: the serial engine at Options.Iterative =
	// IterativeBudget. Core-exact ignores that budget, so the arm repeats
	// the serial configuration: IterativeFlowSolves (gated ≤ SerialIters)
	// equals SerialIters, and PreSolveIters/PreSolveSkips read 0. The
	// fields keep the BENCH trajectory comparable.
	IterativeNsOp       int64   `json:"iterative_ns_op,omitempty"`
	IterativeBudget     int     `json:"iterative_budget,omitempty"`
	IterativeFlowSolves int     `json:"iterative_flow_solves,omitempty"`
	PreSolveIters       int     `json:"pre_solve_iters,omitempty"`
	PreSolveSkips       int     `json:"pre_solve_skips,omitempty"`
	IterativeSpeedup    float64 `json:"iterative_speedup,omitempty"`
	// The warm-solver arm: the same Ψ queried twice through one
	// dsd.Solver. ColdNsOp is the first Solve on a fresh Solver (it pays
	// the (k,Ψ)-core decomposition); WarmNsOp is a repeat Solve on the
	// same Solver, which must skip it. WarmReused reports the warm run's
	// ReusedDecomposition stat (flow-free proof of reuse); WarmMatch that
	// cold and warm returned exactly the serial density. The validator
	// additionally requires warm < cold wall clock on the multi-community
	// stress case, where the decomposition dominates.
	ColdNsOp    int64   `json:"cold_ns_op,omitempty"`
	WarmNsOp    int64   `json:"warm_ns_op,omitempty"`
	WarmSpeedup float64 `json:"warm_speedup,omitempty"`
	WarmMatch   *bool   `json:"warm_match,omitempty"`
	WarmReused  *bool   `json:"warm_reused,omitempty"`
	// The mutate arm: an edge-mutation batch applied to a warm Solver
	// (incremental memo repair + warm re-solve, MutateIncNsOp) against
	// rebuilding the mutated graph from its edge list and solving cold
	// (MutateColdNsOp). MutateMatch gates the two densities bit-identical;
	// the validator additionally requires incremental < cold wall clock on
	// the dedicated "mutate-" case, where Ψ-instance enumeration dominates
	// the cold path.
	MutateIncNsOp  int64   `json:"mutate_inc_ns_op,omitempty"`
	MutateColdNsOp int64   `json:"mutate_cold_ns_op,omitempty"`
	MutateSpeedup  float64 `json:"mutate_speedup,omitempty"`
	MutateMatch    *bool   `json:"mutate_match,omitempty"`
	// The degrade arm: the same query under a wall-clock deadline that is
	// a small fraction of the exact solve, answered by graceful
	// degradation — the best certified answer with a bound interval
	// instead of an error. DegradeNsOp is the degraded solve's wall
	// clock, DegradeDeadlineNs the budget it ran under, DegradeRatio is
	// DegradeNsOp/SerialNsOp (the first-result latency, gated < 0.10 on
	// the dedicated "degrade-" case), DegradeLower/DegradeUpper the
	// returned interval, and DegradeCertified that the interval is sound:
	// lower is the returned witness's density and the exact optimum lies
	// within [lower, upper].
	DegradeNsOp       int64   `json:"degrade_ns_op,omitempty"`
	DegradeDeadlineNs int64   `json:"degrade_deadline_ns,omitempty"`
	DegradeRatio      float64 `json:"degrade_ratio,omitempty"`
	DegradeLower      float64 `json:"degrade_lower,omitempty"`
	DegradeUpper      float64 `json:"degrade_upper,omitempty"`
	DegradeCertified  *bool   `json:"degrade_certified,omitempty"`
	// The anytime arm: the same query answered through the streaming
	// planner (Solver.StreamFunc) on a warm Solver — the serving scenario
	// of POST /v1/stream. AnytimeFirstNs is the time to the first
	// certified answer on the stream, AnytimeNsOp the full streamed solve,
	// AnytimeFirstFrac = AnytimeFirstNs/SerialNsOp (the anytime headline,
	// gated < 0.05 on the dedicated "anytime-" case), AnytimeEvents how
	// many certified tightenings the stream delivered. AnytimeMatch gates
	// the streamed final bit-identical to the plain Solve density;
	// AnytimeMonotone that across every rep the interval never widened
	// event to event (lower ends only rose, upper ends only fell).
	AnytimeNsOp      int64   `json:"anytime_ns_op,omitempty"`
	AnytimeFirstNs   int64   `json:"anytime_first_ns,omitempty"`
	AnytimeFirstFrac float64 `json:"anytime_first_frac,omitempty"`
	AnytimeEvents    int     `json:"anytime_events,omitempty"`
	AnytimeMatch     *bool   `json:"anytime_match,omitempty"`
	AnytimeMonotone  *bool   `json:"anytime_monotone,omitempty"`
	// The obs arm: the iterative configuration re-run under a live
	// obs.Tracer, so every phase span is recorded, in runs interleaved
	// with the iterative arm's. ObsNsOp is its fastest run; the suite
	// gates the per-pair ratios (BenchReport.ObsOverhead). ObsMatch
	// reports that the traced run returned exactly the serial density.
	ObsNsOp  int64 `json:"obs_ns_op,omitempty"`
	ObsMatch *bool `json:"obs_match,omitempty"`
	// The memory arm: one extra run of the iterative configuration
	// measured for resource footprint. AllocBytesOp/AllocsOp are the
	// run's heap allocation (runtime.MemStats deltas after a GC —
	// deterministic for a fixed workload); PeakRSSBytes the kernel's
	// VmHWM peak resident set over the run, reset per case where
	// /proc/self/clear_refs permits. The validator requires both on the
	// core-exact cases, and the comparator fails an allocation
	// regression beyond 1.5× against the previous trajectory point.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	AllocBytesOp int64 `json:"alloc_bytes_op,omitempty"`
	AllocsOp     int64 `json:"allocs_op,omitempty"`
	// Density is the result density (omitted for decomposition cases).
	Density float64 `json:"density,omitempty"`
	// DensityMatch reports that the parallel arm returned exactly the
	// serial density (rational comparison, not float); IterativeMatch
	// reports the same for the iterative arm. CI fails the bench gate
	// when either arm does not match.
	DensityMatch   *bool `json:"density_match,omitempty"`
	IterativeMatch *bool `json:"iterative_match,omitempty"`
}

// perfWorkers resolves the parallel arm's worker count.
func perfWorkers(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return 4
}

// perfIterBudget resolves the iterative arm's Options.Iterative budget.
func perfIterBudget(cfg Config) int {
	if cfg.Iterative > 0 {
		return cfg.Iterative
	}
	return core.DefaultIterativeBudget
}

// warmSolverArm measures the "same Ψ queried twice through one Solver"
// path: cold re-creates the Solver every rep, so each run pays the
// (k,Ψ)-core decomposition; warm repeats on a pre-warmed Solver, which
// must serve the decomposition from its memo.
func warmSolverArm(g *graph.Graph, h, iterBudget, reps int) (cold, warm int64, coldRes, warmRes *core.Result) {
	q := dsd.Query{H: h, Iterative: iterBudget}
	cold = bestOf(reps, func() {
		coldRes, _ = dsd.NewSolver(g).Solve(context.Background(), q)
	})
	s := dsd.NewSolver(g)
	s.Solve(context.Background(), q)
	warm = bestOf(reps, func() {
		warmRes, _ = s.Solve(context.Background(), q)
	})
	return cold, warm, coldRes, warmRes
}

// mutateBatch builds a deterministic edge-mutation batch against g:
// every 50th edge deleted, plus a handful of inserts spanning vertices
// that are (mostly) not adjacent — enough change to force real memo
// repair without redefining the instance.
func mutateBatch(g *graph.Graph) dsd.Mutation {
	var m dsd.Mutation
	i := 0
	g.Edges(func(u, v int) {
		if i%50 == 0 {
			m.Delete = append(m.Delete, [2]int{u, v})
		}
		i++
	})
	n := g.N()
	for j := 0; j < 10; j++ {
		m.Insert = append(m.Insert, [2]int{j, n/2 + 3*j})
	}
	return m
}

// mutateArm measures incremental mutate-then-solve against cold
// rebuild-then-solve. The incremental path is what a mutable dsdd graph
// does on POST /v1/graphs/{g}/edges: apply the batch to the warm Solver
// (per-edge k-core repair and Ψ-degree deltas) and answer on the new
// head, where CoreExact skips the Ψ-instance counting AND the peel —
// it locates on the parent version's core numbers carried as upper
// bounds (psicore.UpperBound) and warm-starts from the carried witness.
// The cold path is the alternative the arm exists to beat: rebuild the
// graph from the mutated edge list and solve on a fresh Solver, paying
// the full count + peel.
func mutateArm(g *graph.Graph, h, iterBudget, reps int) (inc, cold int64, incRes, coldRes *core.Result) {
	q := dsd.Query{H: h, Iterative: iterBudget}
	batch := mutateBatch(g)
	// Each rep mutates its own pre-warmed Solver (a mutation is not
	// repeatable on one solver), and only Mutate + re-solve are timed —
	// the warm state is what the server already holds when a batch lands.
	var warm []*dsd.Solver
	for i := 0; i < reps; i++ {
		s := dsd.NewSolver(g)
		s.Solve(context.Background(), q)
		warm = append(warm, s)
	}
	for _, s := range warm {
		start := time.Now()
		s.Mutate(context.Background(), batch)
		incRes, _ = s.Solve(context.Background(), q)
		if d := time.Since(start).Nanoseconds(); inc == 0 || d < inc {
			inc = d
		}
	}
	// The mutated edge list, as a re-loading server would hold it.
	mutated := warm[0].Graph()
	var edges [][2]int
	mutated.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	n := mutated.N()
	cold = bestOf(reps, func() {
		ng := graph.FromEdges(n, edges)
		coldRes, _ = dsd.NewSolver(ng).Solve(context.Background(), q)
	})
	return inc, cold, incRes, coldRes
}

// degradeArm measures deadline-bounded graceful degradation on a warm
// Solver (the serving scenario: dsdd holds the decomposition memo when a
// budgeted query lands). A deadline ladder starting at exactNs/50 finds
// the tightest budget that yields a certified answer — a budget that
// fires before any component search has certified anything returns an
// error, not a result — and reports the fastest certified run. All
// ladder rungs stay well under the 10% first-result-latency gate.
func degradeArm(s *dsd.Solver, h int, exactNs int64, reps int) (ns, deadline int64, res *core.Result) {
	for _, div := range []int64{50, 25, 12} {
		d := time.Duration(exactNs / div)
		if d <= 0 {
			continue
		}
		q := dsd.Query{H: h, Deadline: d}
		for i := 0; i < reps; i++ {
			start := time.Now()
			r, err := s.Solve(context.Background(), q)
			t := time.Since(start).Nanoseconds()
			if err != nil {
				continue
			}
			if res == nil || t < ns {
				ns, res = t, r
			}
		}
		if res != nil {
			return ns, int64(d), res
		}
	}
	return 0, 0, nil
}

// anytimeArm measures the streaming planner on a warm Solver: reps
// StreamFunc runs, reporting the fastest run's wall clock, its
// time-to-first-certified-answer, and its event count. match requires
// every rep's final density bit-identical (Num and Den, not just value)
// to exact; monotone that no rep's stream ever widened the interval.
func anytimeArm(s *dsd.Solver, h int, exact *core.Result, reps int) (ns, firstNs int64, events int, match, monotone bool) {
	match, monotone = true, true
	for i := 0; i < reps; i++ {
		var repFirst int64
		var repEvents int
		var prevLower, prevUpper = -1.0, 0.0
		prevUpperSet := false
		start := time.Now()
		res, err := s.StreamFunc(context.Background(), dsd.Query{H: h}, func(a dsd.Answer) {
			if repEvents == 0 {
				repFirst = time.Since(start).Nanoseconds()
			}
			repEvents++
			lower := a.Density.Float()
			if lower < prevLower {
				monotone = false
			}
			if prevUpperSet && a.Bound > prevUpper {
				monotone = false
			}
			prevLower = lower
			prevUpper, prevUpperSet = a.Bound, true
		})
		total := time.Since(start).Nanoseconds()
		if err != nil || res == nil || repEvents == 0 {
			match = false
			continue
		}
		if res.Density.Cmp(exact.Density) != 0 ||
			res.Density.Num != exact.Density.Num || res.Density.Den != exact.Density.Den {
			match = false
		}
		if ns == 0 || total < ns {
			ns, firstNs, events = total, repFirst, repEvents
		}
	}
	return ns, firstNs, events, match, monotone
}

// bestOf times fn over reps runs and returns the fastest, the standard
// guard against scheduler noise on shared runners.
func bestOf(reps int, fn func()) int64 {
	best := int64(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// interleaved times a and b in pairs, alternating which of the two runs
// first, and returns the fastest run of each and the per-pair ratios
// b/a. A slow spell of the machine then lands on both sides of a pair
// instead of on one arm's whole block of repetitions. Every run starts
// from a collected heap, so no run pays for its predecessor's garbage.
// It runs at least minPairs pairs, and more until budget has elapsed.
func interleaved(minPairs int, budget time.Duration, a, b func()) (bestA, bestB int64, ratios []float64) {
	timed := func(fn func()) int64 {
		runtime.GC()
		start := time.Now()
		fn()
		return max(1, time.Since(start).Nanoseconds())
	}
	start := time.Now()
	for i := 0; i < minPairs || time.Since(start) < budget; i++ {
		var da, db int64
		if i%2 == 0 {
			da = timed(a)
			db = timed(b)
		} else {
			db = timed(b)
			da = timed(a)
		}
		if bestA == 0 || da < bestA {
			bestA = da
		}
		if bestB == 0 || db < bestB {
			bestB = db
		}
		ratios = append(ratios, float64(db)/float64(da))
	}
	return bestA, bestB, ratios
}

// quartiles returns the first quartile, median and third quartile of xs
// (non-empty), each the midpoint of the two middle values where the
// count is even.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := func(s []float64) float64 {
		n := len(s)
		return (s[(n-1)/2] + s[n/2]) / 2
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	half := len(s) / 2
	return mid(s[:half]), mid(s), mid(s[len(s)-half:])
}

// PerfSuiteReport measures the suite and returns the report. The cases
// cover the exact hot path this repository optimizes (CoreExact on the
// multi-component stress instance and a power-law graph, h ∈ {2,3},
// measured serial, parallel, and at an Iterative budget), the parallel
// clique-degree seeding, and the approximation baselines that frame
// them. The serial and parallel arms run at Iterative 0, as earlier
// BENCH_*.json trajectory points did; the iterative arm is the same
// serial engine at the budget, which core-exact ignores.
func PerfSuiteReport(cfg Config) (*BenchReport, error) {
	reps := 3
	if cfg.Quick {
		reps = 2
	}
	workers := perfWorkers(cfg)
	iterBudget := perfIterBudget(cfg)
	rep := &BenchReport{
		Schema:     BenchSchema,
		Suite:      "perfsuite",
		Quick:      cfg.Quick,
		Workers:    workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	// The multi-component stress instance (see gen.MultiCommunity): the
	// serial engine fully searches component after component, the
	// parallel engine shares the bound and aborts most of them.
	multi := gen.MultiCommunity(10, 30, 12, 18, 20, 1)
	if cfg.Quick {
		multi = gen.MultiCommunity(8, 25, 10, 15, 18, 1)
	}
	// A power-law graph: the single-dense-region regime where the
	// parallel engine degenerates to ~serial work (honest lower end).
	cl := gen.ChungLu(3000/cfg.Div, 15000/cfg.Div, 2.5, 9)

	// Traced/untraced pairs per case: more than reps, and as many more as
	// fit in obsBudget, because the gate reads a ratio of a few percent
	// through a per-pair spread of 10–20% on a shared host. The cheap
	// cases, whose single runs are the noisiest, contribute the most.
	const obsBudget = time.Second
	obsPairs := 2*reps + 1
	var obsRatios []float64
	coreExactCase := func(name string, g *graph.Graph, h int) BenchCase {
		o := motif.Clique{H: h}
		seed := core.DefaultOptions()
		seed.Iterative = 0
		var serialRes, parRes, iterRes *core.Result
		serial := bestOf(reps, func() { serialRes, _ = core.CoreExact(context.Background(), g, o, seed, nil, nil) })
		popts := seed
		popts.Workers = workers
		par := bestOf(reps, func() { parRes, _ = core.CoreExact(context.Background(), g, o, popts, nil, nil) })
		iopts := core.DefaultOptions()
		iopts.Iterative = iterBudget
		// The iterative arm, interleaved with the obs arm: the exact same
		// engine configuration with a live tracer on the context, so every
		// phase span is actually recorded — what a dsdd query pays by
		// default.
		var obsRes *core.Result
		iter, obsNs, ratios := interleaved(obsPairs, obsBudget,
			func() { iterRes, _ = core.CoreExact(context.Background(), g, o, iopts, nil, nil) },
			func() {
				octx := obs.WithSpan(context.Background(), obs.New(), nil)
				obsRes, _ = core.CoreExact(octx, g, o, iopts, nil, nil)
			})
		obsRatios = append(obsRatios, ratios...)
		match := serialRes.Density.Cmp(parRes.Density) == 0
		iterMatch := serialRes.Density.Cmp(iterRes.Density) == 0
		obsMatch := obsRes != nil && serialRes.Density.Cmp(obsRes.Density) == 0

		// The memory arm: the iterative configuration once more, measured
		// for heap allocation and peak RSS instead of wall clock.
		peakRSS, allocBytes, allocs := measureMem(func() { core.CoreExact(context.Background(), g, o, iopts, nil, nil) })

		// Warm-solver arm: the same Ψ through one dsd.Solver, default
		// engine configuration.
		cold, warm, coldRes, warmRes := warmSolverArm(g, h, iterBudget, reps)
		warmMatch := coldRes != nil && warmRes != nil &&
			serialRes.Density.Cmp(coldRes.Density) == 0 &&
			serialRes.Density.Cmp(warmRes.Density) == 0
		warmReused := warmRes != nil && warmRes.Stats.ReusedDecomposition

		return BenchCase{
			Name:                name,
			Algo:                "core-exact",
			Motif:               motif.Clique{H: h}.Name(),
			N:                   g.N(),
			M:                   g.M(),
			SerialNsOp:          serial,
			ParallelNsOp:        par,
			Workers:             workers,
			Speedup:             float64(serial) / float64(par),
			SerialIters:         serialRes.Stats.Iterations,
			ParallelIters:       parRes.Stats.Iterations,
			IterativeNsOp:       iter,
			IterativeBudget:     iterBudget,
			IterativeFlowSolves: iterRes.Stats.Iterations,
			PreSolveIters:       iterRes.Stats.PreSolveIters,
			PreSolveSkips:       iterRes.Stats.PreSolveSkips,
			IterativeSpeedup:    float64(serial) / float64(iter),
			ObsNsOp:             obsNs,
			ObsMatch:            &obsMatch,
			PeakRSSBytes:        peakRSS,
			AllocBytesOp:        allocBytes,
			AllocsOp:            allocs,
			ColdNsOp:            cold,
			WarmNsOp:            warm,
			WarmSpeedup:         float64(cold) / float64(warm),
			WarmMatch:           &warmMatch,
			WarmReused:          &warmReused,
			Density:             serialRes.Density.Float(),
			DensityMatch:        &match,
			IterativeMatch:      &iterMatch,
		}
	}
	serialCase := func(name, algo string, g *graph.Graph, h int, run func() *core.Result) BenchCase {
		var res *core.Result
		ns := bestOf(reps, func() { res = run() })
		return BenchCase{
			Name:       name,
			Algo:       algo,
			Motif:      motif.Clique{H: h}.Name(),
			N:          g.N(),
			M:          g.M(),
			SerialNsOp: ns,
			Density:    res.Density.Float(),
		}
	}

	rep.Cases = append(rep.Cases,
		coreExactCase("coreexact-multicommunity", multi, 3),
		coreExactCase("coreexact-chunglu-edge", cl, 2),
		coreExactCase("coreexact-chunglu-triangle", cl, 3),
		serialCase("coreapp-chunglu-triangle", "core-app", cl, 3, func() *core.Result {
			return core.CoreApp(cl, motif.Clique{H: 3}, nil)
		}),
		serialCase("peel-chunglu-triangle", "peel", cl, 3, func() *core.Result {
			return core.PeelApp(cl, motif.Clique{H: 3}, nil)
		}),
	)

	// The dedicated warm-solver stress case carrying the wall-clock gate:
	// 4-clique motif on the multi-community instance, where the
	// decomposition is a deterministic double-digit share of the solve,
	// so warm < cold holds with real margin. (The generic core-exact
	// cases above also carry warm arms, gated on density match and memo
	// reuse only — their decomposition share is too thin to gate time on
	// a noisy runner.) SerialNsOp doubles as the cold solve here: the
	// case has no engine-comparison arms.
	{
		cold, warm, coldRes, warmRes := warmSolverArm(multi, 4, iterBudget, reps)
		warmMatch := coldRes != nil && warmRes != nil && coldRes.Density.Cmp(warmRes.Density) == 0
		warmReused := warmRes != nil && warmRes.Stats.ReusedDecomposition
		rep.Cases = append(rep.Cases, BenchCase{
			Name:        "warmsolver-multicommunity-4clique",
			Algo:        "core-exact",
			Motif:       motif.Clique{H: 4}.Name(),
			N:           multi.N(),
			M:           multi.M(),
			SerialNsOp:  cold,
			ColdNsOp:    cold,
			WarmNsOp:    warm,
			WarmSpeedup: float64(cold) / float64(warm),
			WarmMatch:   &warmMatch,
			WarmReused:  &warmReused,
			Density:     coldRes.Density.Float(),
		})
	}

	// The dedicated mutate stress case carrying the wall-clock gate:
	// 4-clique motif on the multi-community instance, where Ψ-instance
	// enumeration dominates a cold solve, so incremental repair
	// (per-edge deltas + seeded re-peel + carried witness) beats
	// rebuild-then-solve with real margin. The gate also requires the two
	// densities bit-identical — the equivalence criterion of the mutable
	// graph subsystem, measured where it is cheapest to violate.
	{
		inc, cold, incRes, coldRes := mutateArm(multi, 4, iterBudget, reps)
		match := incRes != nil && coldRes != nil &&
			incRes.Density.Cmp(coldRes.Density) == 0 &&
			incRes.Density.Num == coldRes.Density.Num &&
			incRes.Density.Den == coldRes.Density.Den
		rep.Cases = append(rep.Cases, BenchCase{
			Name:           "mutate-multicommunity-4clique",
			Algo:           "core-exact",
			Motif:          motif.Clique{H: 4}.Name(),
			N:              multi.N(),
			M:              multi.M(),
			SerialNsOp:     cold,
			MutateIncNsOp:  inc,
			MutateColdNsOp: cold,
			MutateSpeedup:  float64(cold) / float64(inc),
			MutateMatch:    &match,
			Density:        coldRes.Density.Float(),
		})
	}

	// The dedicated degrade stress case: triangle-densest on the
	// multi-community instance under a deadline ~2% of the exact solve.
	// The gates are the resilience subsystem's acceptance criteria: the
	// degraded answer must come back in under 10% of the exact wall clock
	// AND carry a sound certificate — its density is a true lower bound
	// realized by the returned witness, and the exact optimum sits inside
	// [lower, upper].
	{
		s := dsd.NewSolver(multi)
		var exactRes *core.Result
		exactNs := bestOf(reps, func() { exactRes, _ = s.Solve(context.Background(), dsd.Query{H: 3}) })
		ns, deadline, degRes := degradeArm(s, 3, exactNs, reps)
		if degRes == nil {
			return nil, fmt.Errorf("degrade arm: no deadline in the ladder yielded a certified answer (exact %s)",
				time.Duration(exactNs))
		}
		{
			certified := false
			lower, upper := degRes.Density.Float(), degRes.Bound.Upper
			if degRes.Degraded {
				certified = degRes.Bound.Lower.Cmp(degRes.Density) == 0 &&
					degRes.Density.Cmp(exactRes.Density) <= 0 &&
					exactRes.Density.CmpFloat(degRes.Bound.Upper) <= 0
			} else {
				// The budget unexpectedly sufficed: certified iff exact.
				certified = degRes.Density.Cmp(exactRes.Density) == 0
				upper = lower
			}
			rep.Cases = append(rep.Cases, BenchCase{
				Name:              "degrade-multicommunity-triangle",
				Algo:              "core-exact",
				Motif:             motif.Clique{H: 3}.Name(),
				N:                 multi.N(),
				M:                 multi.M(),
				SerialNsOp:        exactNs,
				DegradeNsOp:       ns,
				DegradeDeadlineNs: deadline,
				DegradeRatio:      float64(ns) / float64(exactNs),
				DegradeLower:      lower,
				DegradeUpper:      upper,
				DegradeCertified:  &certified,
				Density:           exactRes.Density.Float(),
			})
		}
	}

	// The dedicated anytime stress case: triangle-densest on the
	// multi-community instance, streamed through the planner on a warm
	// Solver. The gates are the streaming subsystem's acceptance criteria:
	// the first certified answer must appear in under 5% of the exact
	// solve's wall clock (on a warm solver the memo rung answers in
	// microseconds), the final streamed density must be bit-identical to
	// plain Solve, and the certified interval may never widen between
	// events.
	{
		s := dsd.NewSolver(multi)
		var exactRes *core.Result
		exactNs := bestOf(reps, func() { exactRes, _ = s.Solve(context.Background(), dsd.Query{H: 3}) })
		ns, firstNs, events, match, monotone := anytimeArm(s, 3, exactRes, reps)
		if ns == 0 {
			return nil, fmt.Errorf("anytime arm: no streamed run completed")
		}
		rep.Cases = append(rep.Cases, BenchCase{
			Name:             "anytime-multicommunity-triangle",
			Algo:             "core-exact",
			Motif:            motif.Clique{H: 3}.Name(),
			N:                multi.N(),
			M:                multi.M(),
			SerialNsOp:       exactNs,
			AnytimeNsOp:      ns,
			AnytimeFirstNs:   firstNs,
			AnytimeFirstFrac: float64(firstNs) / float64(exactNs),
			AnytimeEvents:    events,
			AnytimeMatch:     &match,
			AnytimeMonotone:  &monotone,
			Density:          exactRes.Density.Float(),
		})
	}

	// Parallel clique-degree seeding of the (k,Ψ)-core decomposition.
	{
		o := motif.Clique{H: 4}
		var serialDec, parDec *psicore.Decomposition
		serial := bestOf(reps, func() { serialDec = psicore.Decompose(cl, o) })
		par := bestOf(reps, func() { parDec = psicore.DecomposeWorkers(cl, o, workers) })
		match := serialDec.KMax == parDec.KMax
		rep.Cases = append(rep.Cases, BenchCase{
			Name:         "decompose-seed-chunglu-4clique",
			Algo:         "decompose",
			Motif:        o.Name(),
			N:            cl.N(),
			M:            cl.M(),
			SerialNsOp:   serial,
			ParallelNsOp: par,
			Workers:      workers,
			Speedup:      float64(serial) / float64(par),
			DensityMatch: &match,
		})
	}

	// The headline aggregate: seed flow solves per iterative flow solve
	// across the suite (the divisor is clamped to 1 so a fully flow-free
	// run stays encodable).
	var seedSolves, iterSolves int
	for _, c := range rep.Cases {
		if c.IterativeNsOp > 0 {
			seedSolves += c.SerialIters
			iterSolves += c.IterativeFlowSolves
		}
	}
	if seedSolves > 0 {
		div := iterSolves
		if div == 0 {
			div = 1
		}
		rep.FlowSolveReduction = float64(seedSolves) / float64(div)
	}
	// Tracing overhead is pooled across the suite's pairs rather than
	// gated per case, where scheduler noise on a small graph could dwarf
	// the real span cost; the median ignores the odd pair a slow spell
	// of the machine hit on one side.
	if len(obsRatios) > 0 {
		q1, med, q3 := quartiles(obsRatios)
		rep.ObsOverhead, rep.ObsOverheadIQR, rep.ObsPairs = med, q3-q1, len(obsRatios)
	}
	return rep, nil
}

// RunPerfSuite measures the suite and prints it as a table (the JSON
// artifact is emitted by `dsdbench -run perfsuite -json`).
func RunPerfSuite(cfg Config) error {
	rep, err := PerfSuiteReport(cfg)
	if err != nil {
		return err
	}
	t := newTable(cfg.Out, "case", "algo", "motif", "serial", "parallel", "speedup", "iterative", "solves", "warm", "match")
	for _, c := range rep.Cases {
		par, speed, match := "-", "-", "-"
		if c.ParallelNsOp > 0 {
			par = secs(time.Duration(c.ParallelNsOp))
			speed = fmt.Sprintf("%.2fx", c.Speedup)
			match = fmt.Sprintf("%v", *c.DensityMatch)
		}
		iter, solves := "-", "-"
		if c.IterativeNsOp > 0 {
			iter = secs(time.Duration(c.IterativeNsOp))
			solves = fmt.Sprintf("%d→%d", c.SerialIters, c.IterativeFlowSolves)
			match = fmt.Sprintf("%v", *c.DensityMatch && *c.IterativeMatch)
		}
		warm := "-"
		if c.WarmNsOp > 0 {
			warm = fmt.Sprintf("%s (%.2fx)", secs(time.Duration(c.WarmNsOp)), c.WarmSpeedup)
			ok := *c.WarmMatch && *c.WarmReused
			if c.DensityMatch != nil {
				ok = ok && *c.DensityMatch
			}
			if c.IterativeMatch != nil {
				ok = ok && *c.IterativeMatch
			}
			match = fmt.Sprintf("%v", ok)
		}
		if c.MutateIncNsOp > 0 {
			warm = fmt.Sprintf("%s (%.2fx)", secs(time.Duration(c.MutateIncNsOp)), c.MutateSpeedup)
			match = fmt.Sprintf("%v", *c.MutateMatch)
		}
		if c.DegradeNsOp > 0 {
			warm = fmt.Sprintf("%s (%.1f%%)", secs(time.Duration(c.DegradeNsOp)), 100*c.DegradeRatio)
			match = fmt.Sprintf("%v", *c.DegradeCertified)
		}
		if c.AnytimeNsOp > 0 {
			warm = fmt.Sprintf("first %s (%.2f%%)", secs(time.Duration(c.AnytimeFirstNs)), 100*c.AnytimeFirstFrac)
			match = fmt.Sprintf("%v", *c.AnytimeMatch && *c.AnytimeMonotone)
		}
		t.row(c.Name, c.Algo, c.Motif, secs(time.Duration(c.SerialNsOp)), par, speed, iter, solves, warm, match)
	}
	t.flush()
	if rep.FlowSolveReduction > 0 {
		fmt.Fprintf(cfg.Out, "flow-solve reduction: %.2fx\n", rep.FlowSolveReduction)
	}
	if rep.ObsOverhead > 0 {
		fmt.Fprintf(cfg.Out, "tracing overhead: %+.2f%% (median of %d interleaved pairs, IQR %.2f%%)\n",
			100*(rep.ObsOverhead-1), rep.ObsPairs, 100*rep.ObsOverheadIQR)
	}
	return nil
}

// WriteBenchReport encodes rep as indented JSON.
func WriteBenchReport(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ValidateBenchReport checks that data is a well-formed BenchReport: the
// schema tag, at least one case, positive timings, and the correctness
// gates — an exact density match on every case that ran a parallel or
// iterative arm, and no iterative arm spending more flow solves than the
// seed engine it is meant to relieve. No check here compares two wall
// clocks, so a report from a loaded machine passes it as surely as one
// from an idle machine; the wall-clock gates are ValidateBenchTimings.
// CI runs both against the emitted artifact and fails the bench job on
// any violation.
func ValidateBenchReport(data []byte) error {
	rep, err := decodeBenchReportStrict(data)
	if err != nil {
		return err
	}
	if rep.Schema != BenchSchema {
		return fmt.Errorf("bench report: schema %q, want %q", rep.Schema, BenchSchema)
	}
	if rep.Suite == "" {
		return fmt.Errorf("bench report: missing suite")
	}
	if rep.Workers <= 0 {
		return fmt.Errorf("bench report: workers %d, want > 0", rep.Workers)
	}
	if len(rep.Cases) == 0 {
		return fmt.Errorf("bench report: no cases")
	}
	for i, c := range rep.Cases {
		if c.Name == "" || c.Algo == "" {
			return fmt.Errorf("bench report: case %d: missing name/algo", i)
		}
		if c.SerialNsOp <= 0 {
			return fmt.Errorf("bench report: case %q: serial_ns_op %d, want > 0", c.Name, c.SerialNsOp)
		}
		if c.ParallelNsOp < 0 {
			return fmt.Errorf("bench report: case %q: negative parallel_ns_op", c.Name)
		}
		if c.ParallelNsOp > 0 {
			if c.Workers <= 0 {
				return fmt.Errorf("bench report: case %q: parallel arm without workers", c.Name)
			}
			if c.Speedup <= 0 {
				return fmt.Errorf("bench report: case %q: parallel arm without speedup", c.Name)
			}
			if c.DensityMatch == nil {
				return fmt.Errorf("bench report: case %q: parallel arm without density_match", c.Name)
			}
			if !*c.DensityMatch {
				return fmt.Errorf("bench report: case %q: parallel density does not match serial", c.Name)
			}
		}
		if c.IterativeNsOp > 0 {
			if c.IterativeBudget <= 0 {
				return fmt.Errorf("bench report: case %q: iterative arm without budget", c.Name)
			}
			if c.IterativeMatch == nil {
				return fmt.Errorf("bench report: case %q: iterative arm without iterative_match", c.Name)
			}
			if !*c.IterativeMatch {
				return fmt.Errorf("bench report: case %q: iterative density does not match serial", c.Name)
			}
			// The perf gate proper: flow-free bounds must never cost
			// min-cut computations relative to the seed engine.
			if c.IterativeFlowSolves > c.SerialIters {
				return fmt.Errorf("bench report: case %q: iterative arm spends %d flow solves, seed %d",
					c.Name, c.IterativeFlowSolves, c.SerialIters)
			}
		}
		if c.ObsNsOp > 0 {
			// Tracing must never change the answer.
			if c.ObsMatch == nil {
				return fmt.Errorf("bench report: case %q: obs arm without obs_match", c.Name)
			}
			if !*c.ObsMatch {
				return fmt.Errorf("bench report: case %q: traced density does not match serial", c.Name)
			}
		}
		if c.PeakRSSBytes < 0 || c.AllocBytesOp < 0 || c.AllocsOp < 0 {
			return fmt.Errorf("bench report: case %q: negative memory measurement", c.Name)
		}
		// The memory gate: every engine-comparison core-exact case must
		// carry its footprint so the trajectory can gate regressions.
		if strings.HasPrefix(c.Name, "coreexact-") {
			if c.AllocBytesOp <= 0 || c.AllocsOp <= 0 {
				return fmt.Errorf("bench report: case %q: missing alloc_bytes_op/allocs_op memory arm", c.Name)
			}
			if c.PeakRSSBytes <= 0 {
				return fmt.Errorf("bench report: case %q: missing peak_rss_bytes memory arm", c.Name)
			}
		}
		if c.MutateIncNsOp > 0 {
			if c.MutateColdNsOp <= 0 {
				return fmt.Errorf("bench report: case %q: mutate arm without mutate_cold_ns_op", c.Name)
			}
			// The equivalence gate: mutate-then-solve and rebuild-then-solve
			// must agree bit-exactly.
			if c.MutateMatch == nil || !*c.MutateMatch {
				return fmt.Errorf("bench report: case %q: incremental mutate density does not match cold rebuild", c.Name)
			}
		}
		if c.DegradeNsOp > 0 {
			if c.DegradeDeadlineNs <= 0 {
				return fmt.Errorf("bench report: case %q: degrade arm without degrade_deadline_ns", c.Name)
			}
			// The soundness gate: a degraded answer is only admissible with
			// a certificate — its density a true lower bound and the exact
			// optimum inside the returned interval.
			if c.DegradeCertified == nil || !*c.DegradeCertified {
				return fmt.Errorf("bench report: case %q: degraded answer is not certified against the exact density", c.Name)
			}
			if c.DegradeUpper < c.DegradeLower {
				return fmt.Errorf("bench report: case %q: degraded interval [%g, %g] is inverted",
					c.Name, c.DegradeLower, c.DegradeUpper)
			}
		}
		if c.AnytimeNsOp > 0 {
			if c.AnytimeFirstNs <= 0 {
				return fmt.Errorf("bench report: case %q: anytime arm without anytime_first_ns", c.Name)
			}
			if c.AnytimeEvents < 1 {
				return fmt.Errorf("bench report: case %q: anytime arm delivered no events", c.Name)
			}
			// The exactness gate: the streamed final must be bit-identical
			// to the plain solve — the planner may only prune, never change
			// an optimum.
			if c.AnytimeMatch == nil || !*c.AnytimeMatch {
				return fmt.Errorf("bench report: case %q: streamed final density does not match plain solve", c.Name)
			}
			// The certification gate: a stream whose interval ever widened
			// delivered an uncertified event.
			if c.AnytimeMonotone == nil || !*c.AnytimeMonotone {
				return fmt.Errorf("bench report: case %q: streamed interval widened between events", c.Name)
			}
		}
		if c.WarmNsOp > 0 {
			if c.ColdNsOp <= 0 {
				return fmt.Errorf("bench report: case %q: warm arm without cold_ns_op", c.Name)
			}
			if c.WarmMatch == nil || !*c.WarmMatch {
				return fmt.Errorf("bench report: case %q: warm density does not match serial", c.Name)
			}
			// The reuse gate: the warm run must prove — via flow-free
			// stats, not wall clock — that the Solver served the
			// decomposition from its memo.
			if c.WarmReused == nil || !*c.WarmReused {
				return fmt.Errorf("bench report: case %q: warm arm did not reuse the solver state", c.Name)
			}
		}
	}
	return nil
}

// ValidateBenchTimings applies the wall-clock gates to a BenchReport: each
// compares two timings measured on one machine, so it holds only on a
// machine quiet enough to measure them. The bench job runs it, through
// dsdbench -validate, next to ValidateBenchReport; unit tests do not, so
// scheduler noise cannot fail `go test`.
func ValidateBenchTimings(data []byte) error {
	rep, err := decodeBenchReportStrict(data)
	if err != nil {
		return err
	}
	for _, c := range rep.Cases {
		// Wall clock is gated on the dedicated mutate case, where the
		// cold path's Ψ-instance enumeration gives a wide margin.
		if strings.HasPrefix(c.Name, "mutate-") && c.MutateIncNsOp > 0 && c.MutateIncNsOp >= c.MutateColdNsOp {
			return fmt.Errorf("bench report: case %q: incremental mutate (%dns) not faster than cold rebuild (%dns)",
				c.Name, c.MutateIncNsOp, c.MutateColdNsOp)
		}
		// A deadline-bounded query must produce its certified answer in
		// under 10% of the exact solve — the point of degrading instead of
		// finishing.
		if strings.HasPrefix(c.Name, "degrade-") && c.DegradeNsOp > 0 && float64(c.DegradeNsOp) >= 0.10*float64(c.SerialNsOp) {
			return fmt.Errorf("bench report: case %q: degraded answer took %dns, want < 10%% of exact %dns",
				c.Name, c.DegradeNsOp, c.SerialNsOp)
		}
		// The first certified answer must land in under 5% of the exact
		// solve — the point of streaming instead of waiting.
		if strings.HasPrefix(c.Name, "anytime-") && c.AnytimeNsOp > 0 && float64(c.AnytimeFirstNs) >= 0.05*float64(c.SerialNsOp) {
			return fmt.Errorf("bench report: case %q: first certified answer took %dns, want < 5%% of exact %dns",
				c.Name, c.AnytimeFirstNs, c.SerialNsOp)
		}
		// Wall clock is gated only on the dedicated warm case, where the
		// decomposition is a double-digit share of the solve. The generic
		// cases' warm arms stay informational.
		if strings.HasPrefix(c.Name, "warmsolver-") && c.WarmNsOp > 0 && c.WarmNsOp >= c.ColdNsOp {
			return fmt.Errorf("bench report: case %q: warm solve (%dns) not faster than cold (%dns)",
				c.Name, c.WarmNsOp, c.ColdNsOp)
		}
	}
	// The tracing-overhead gate: across the suite's interleaved pairs,
	// running under a live tracer may cost at most 3% over the identical
	// untraced engine, in the median.
	if rep.ObsOverhead > 1.03 {
		return fmt.Errorf("bench report: obs overhead %.4f, want ≤ 1.03 (tracing must stay under 3%%)", rep.ObsOverhead)
	}
	return nil
}

// decodeBenchReportStrict parses a freshly emitted BENCH_*.json, rejecting
// unknown fields.
func decodeBenchReportStrict(data []byte) (*BenchReport, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep BenchReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	return &rep, nil
}

// decodeBenchReport parses a BENCH_*.json leniently (older reports lack
// the newer optional fields; newer reports must still carry the v1 schema
// tag).
func decodeBenchReport(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report: schema %q, want %q", rep.Schema, BenchSchema)
	}
	return &rep, nil
}

// CompareBenchReports diffs two perf-trajectory artifacts case by case —
// `dsdbench -compare OLD NEW`, the workflow behind `make bench-compare`.
// Cases are matched by name; serial wall time is the common axis, and the
// newer report's iterative arm (when present) is summarized against its
// seed flow solves. Cases present in only one report are listed so a
// renamed or dropped case cannot silently vanish from the trajectory.
//
// Memory is a gate, not just a column: when both trajectory points
// carry a memory arm for a case, an allocation regression beyond 1.5×
// fails the comparison. Allocation is deterministic for a fixed
// workload, so 1.5× is real algorithmic growth, not runner noise; peak
// RSS stays informational (GC timing makes it jittery).
func CompareBenchReports(w io.Writer, oldData, newData []byte) error {
	oldRep, err := decodeBenchReport(oldData)
	if err != nil {
		return fmt.Errorf("old: %w", err)
	}
	newRep, err := decodeBenchReport(newData)
	if err != nil {
		return fmt.Errorf("new: %w", err)
	}
	oldByName := make(map[string]BenchCase, len(oldRep.Cases))
	for _, c := range oldRep.Cases {
		oldByName[c.Name] = c
	}
	t := newTable(w, "case", "serial old", "serial new", "Δserial", "solves old", "solves new", "iter solves", "iter time", "alloc old", "alloc new", "peak rss")
	seen := make(map[string]bool)
	var memRegressions []string
	for _, nc := range newRep.Cases {
		oc, ok := oldByName[nc.Name]
		if !ok {
			continue
		}
		seen[nc.Name] = true
		delta := fmt.Sprintf("%+.1f%%", 100*(float64(nc.SerialNsOp)-float64(oc.SerialNsOp))/float64(oc.SerialNsOp))
		solvesOld, solvesNew, iterSolves, iterTime := "-", "-", "-", "-"
		if oc.SerialIters > 0 {
			solvesOld = fmt.Sprintf("%d", oc.SerialIters)
		}
		if nc.SerialIters > 0 {
			solvesNew = fmt.Sprintf("%d", nc.SerialIters)
		}
		if nc.IterativeNsOp > 0 {
			iterSolves = fmt.Sprintf("%d", nc.IterativeFlowSolves)
			iterTime = secs(time.Duration(nc.IterativeNsOp))
		}
		allocOld, allocNew, peak := "-", "-", "-"
		if oc.AllocBytesOp > 0 {
			allocOld = mib(oc.AllocBytesOp)
		}
		if nc.AllocBytesOp > 0 {
			allocNew = mib(nc.AllocBytesOp)
		}
		if nc.PeakRSSBytes > 0 {
			peak = mib(nc.PeakRSSBytes)
		}
		if oc.AllocBytesOp > 0 && nc.AllocBytesOp > 0 &&
			float64(nc.AllocBytesOp) > memRegressionFactor*float64(oc.AllocBytesOp) {
			memRegressions = append(memRegressions, fmt.Sprintf(
				"case %q: alloc_bytes_op %d → %d (%.2fx, gate %.1fx)",
				nc.Name, oc.AllocBytesOp, nc.AllocBytesOp,
				float64(nc.AllocBytesOp)/float64(oc.AllocBytesOp), memRegressionFactor))
		}
		t.row(nc.Name, secs(time.Duration(oc.SerialNsOp)), secs(time.Duration(nc.SerialNsOp)), delta,
			solvesOld, solvesNew, iterSolves, iterTime, allocOld, allocNew, peak)
	}
	t.flush()
	for _, nc := range newRep.Cases {
		if _, ok := oldByName[nc.Name]; !ok {
			fmt.Fprintf(w, "only in new: %s\n", nc.Name)
		}
	}
	for _, oc := range oldRep.Cases {
		if !seen[oc.Name] {
			fmt.Fprintf(w, "only in old: %s\n", oc.Name)
		}
	}
	if newRep.FlowSolveReduction > 0 {
		fmt.Fprintf(w, "new flow-solve reduction: %.2fx (seed → iterative, %d workers, budget from report cases)\n",
			newRep.FlowSolveReduction, newRep.Workers)
	}
	if len(memRegressions) > 0 {
		return fmt.Errorf("bench compare: memory regression:\n  %s", strings.Join(memRegressions, "\n  "))
	}
	return nil
}

// memRegressionFactor is the allocation-regression gate of
// CompareBenchReports: a case whose alloc_bytes_op grows past this
// factor between trajectory points fails the comparison.
const memRegressionFactor = 1.5

// mib renders a byte count as MiB for the comparison table.
func mib(b int64) string {
	return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
}
