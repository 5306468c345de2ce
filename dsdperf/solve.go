package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	dsd "repro"
	"repro/internal/datasets"
)

// solveCase is one cold exact solve: an h-clique-density query on a
// Table-2 stand-in at paper scale (Div=1), with its golden density.
type solveCase struct {
	dataset string
	h       int
	// goldNum/goldDen is the exact optimum density, recorded once from
	// the seed code. The seed only relabels vertices, which cannot
	// change an optimum, so one golden serves every seed.
	goldNum, goldDen int64
}

var solveCases = map[string][]solveCase{
	// Edge density: 20-21 α-probes per case, so flow and the Greed++
	// pre-solve dominate and decomposition is ~10%.
	"solve-flow": {
		{dataset: "Ca-HepTh", h: 2, goldNum: 5137, goldDen: 336},
		{dataset: "As-Caida", h: 2, goldNum: 8021, goldDen: 420},
	},
	// Triangle and 4-clique density on the 1.07M-edge DBLP stand-in:
	// Ψ-counting plus peeling is ≥85% and one flow probe suffices.
	"solve-decompose": {
		{dataset: "DBLP", h: 3, goldNum: 13824, goldDen: 48},
		{dataset: "DBLP", h: 4, goldNum: 123437, goldDen: 48},
	},
}

// setupRounds is how often a run generates its inputs; setup_s is the
// median, so one slow round cannot move it.
const setupRounds = 3

// caseQuery is the cold core-exact query of c, with intra-query
// parallelism at GOMAXPROCS.
func caseQuery(c solveCase) dsd.Query {
	return dsd.Query{H: c.h, Algo: dsd.AlgoCoreExact, Workers: -1}
}

// loadStandIn generates the named stand-in at paper scale and relabels
// its vertices with a permutation drawn from rng.
func loadStandIn(name string, rng *rand.Rand) (*dsd.Graph, error) {
	spec, err := datasets.Get(name)
	if err != nil {
		return nil, err
	}
	return relabel(spec.LoadDiv(1), rng), nil
}

// relabel returns g with vertex v renamed perm[v]. Every density is
// invariant under it; memory layout, tie-breaking and the order work is
// met in are not, which is what the seed varies.
func relabel(g *dsd.Graph, rng *rand.Rand) *dsd.Graph {
	perm := rng.Perm(g.N())
	b := dsd.NewBuilder(g.N())
	g.Edges(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
	return b.Build()
}

// solveInputs generates the distinct graphs of cases, in case order.
func solveInputs(cases []solveCase, seed int64) (map[string]*dsd.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	graphs := map[string]*dsd.Graph{}
	for _, c := range cases {
		if graphs[c.dataset] != nil {
			continue
		}
		g, err := loadStandIn(c.dataset, rng)
		if err != nil {
			return nil, err
		}
		graphs[c.dataset] = g
	}
	return graphs, nil
}

func sameDensity(an, ad, bn, bd int64) bool { return an*bd == bn*ad }

// checkWitness re-evaluates res's vertex set on sv and requires the
// recomputed density to equal the reported one.
func checkWitness(sv *dsd.Solver, q dsd.Query, res *dsd.Result, what string) error {
	ev, err := sv.EvaluateWitness(q, res.Vertices)
	if err != nil {
		return fmt.Errorf("%s: evaluate witness: %w", what, err)
	}
	if !sameDensity(ev.Density.Num, ev.Density.Den, res.Density.Num, res.Density.Den) {
		return wrongf("%s: witness of %d vertices evaluates to %d/%d, reported %d/%d",
			what, len(res.Vertices), ev.Density.Num, ev.Density.Den, res.Density.Num, res.Density.Den)
	}
	return nil
}

// coldSolve is one case's cold query: a fresh Solver's Solve, checked
// against the golden density, with its witness re-evaluated. It returns
// the solve's wall time and the CPU time this process spent in it.
func coldSolve(ctx context.Context, g *dsd.Graph, c solveCase) (*dsd.Result, time.Duration, time.Duration, error) {
	what := fmt.Sprintf("%s h=%d", c.dataset, c.h)
	q := caseQuery(c)
	sv := dsd.NewSolver(g)
	// Every cold solve starts from a collected heap: it is a fresh start,
	// and no GC debt of earlier work lands in its time or peak memory.
	runtime.GC()
	c0 := selfCPU()
	t := time.Now()
	res, err := sv.Solve(ctx, q)
	d := time.Since(t)
	cpu := selfCPU() - c0
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: solve: %w", what, err)
	}
	if !sameDensity(res.Density.Num, res.Density.Den, c.goldNum, c.goldDen) {
		return nil, 0, 0, wrongf("%s: density %d/%d, golden %d/%d", what, res.Density.Num, res.Density.Den, c.goldNum, c.goldDen)
	}
	if err := checkWitness(sv, q, res, what); err != nil {
		return nil, 0, 0, err
	}
	return res, d, cpu, nil
}

// tracedCase is one case's cold solve split by layer.
type tracedCase struct {
	countTime  time.Duration
	instances  int64
	decompose  time.Duration
	locate     time.Duration
	components int
	located    int
	n          int
	presolve   time.Duration
	iters      int
	skips      int
	flow       time.Duration
	probes     int
	compSelf   time.Duration
	wall       time.Duration // plan + components + merge
	unattrib   time.Duration
}

// traceCase replays c's cold solve from outside the Solver, one layer
// call at a time: Ψ-instance counting alone (motif), then the location
// phase (PlanComponents: decomposition plus core location), one
// SolveComponent per planned component (Greed++ pre-solve and flow
// probes inside), and the final witness evaluation, which must give the
// golden density again.
func traceCase(ctx context.Context, g *dsd.Graph, c solveCase) (*tracedCase, error) {
	what := fmt.Sprintf("%s h=%d traced", c.dataset, c.h)
	q := caseQuery(c)
	tc := &tracedCase{n: g.N()}

	runtime.GC()
	t := time.Now()
	deg := dsd.CliqueDegrees(g, c.h)
	tc.countTime = time.Since(t)
	var sum int64
	for _, d := range deg {
		sum += d
	}
	tc.instances = sum / int64(c.h)

	sv := dsd.NewSolver(g)
	runtime.GC()
	start := time.Now()
	plan, err := sv.PlanComponents(ctx, q)
	planWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: plan: %w", what, err)
	}
	tc.decompose = plan.Decompose
	tc.locate = planWall - plan.Decompose
	tc.components = len(plan.Components)
	bestNum, bestDen, best := plan.LowerNum, plan.LowerDen, plan.Witness
	floor := dsd.NewComponentFloor(bestNum, bestDen)
	var compWall time.Duration
	for _, comp := range plan.Components {
		tc.located += len(comp)
		cr, err := sv.SolveComponent(ctx, q, comp, plan.KLocate, floor)
		if err != nil {
			return nil, fmt.Errorf("%s: component: %w", what, err)
		}
		compWall += cr.Elapsed
		tc.presolve += cr.PreSolveTime
		tc.flow += cr.FlowTime
		tc.iters += cr.PreSolveIters
		tc.probes += cr.FlowSolves
		if cr.PreSolveSkipped {
			tc.skips++
		}
		tc.compSelf += cr.Elapsed - cr.FlowTime - cr.PreSolveTime
		if cr.Witness != nil && (bestDen == 0 || cr.DensityNum*bestDen > bestNum*cr.DensityDen) {
			bestNum, bestDen, best = cr.DensityNum, cr.DensityDen, cr.Witness
			floor.Raise(bestNum, bestDen)
		}
	}
	res, err := sv.EvaluateWitness(q, best)
	tc.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: evaluate: %w", what, err)
	}
	if !sameDensity(res.Density.Num, res.Density.Den, c.goldNum, c.goldDen) {
		return nil, wrongf("%s: density %d/%d, golden %d/%d", what, res.Density.Num, res.Density.Den, c.goldNum, c.goldDen)
	}
	tc.unattrib = tc.wall - planWall - compWall
	return tc, nil
}

// runSolve runs solve-flow or solve-decompose: cold passes over the
// cases until the time is up. The untraced run does nothing else; the
// traced run follows every cold solve with its layer-by-layer replay.
func runSolve(cfg config) (*outcome, error) {
	ctx := context.Background()
	cases := solveCases[cfg.workload]

	var setups []float64
	var graphs map[string]*dsd.Graph
	for i := 0; i < setupRounds; i++ {
		graphs = nil
		runtime.GC()
		t := time.Now()
		gs, err := solveInputs(cases, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec(time.Since(t)))
		graphs = gs
	}

	out := &outcome{metrics: map[string]float64{}, valid: true}
	var queries []float64
	wall := make([][]float64, len(cases)) // per case, seconds
	cpu := make([][]float64, len(cases))
	layers := map[string][]float64{}
	passes := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		rt0 := readRuntime()
		layer := map[string]float64{}
		var untraced, traced, located, nsum float64
		for i, c := range cases {
			g := graphs[c.dataset]
			out.attempted++
			res, d, cd, err := coldSolve(ctx, g, c)
			if err != nil {
				return nil, err
			}
			queries = append(queries, ms(d))
			wall[i] = append(wall[i], sec(d))
			cpu[i] = append(cpu[i], sec(cd))
			if !cfg.trace {
				continue
			}
			out.attempted++ // the traced replay is checked too
			tc, err := traceCase(ctx, g, c)
			if err != nil {
				return nil, err
			}
			untraced += sec(d)
			traced += sec(tc.wall)
			located += float64(tc.located)
			nsum += float64(tc.n)
			for _, n := range res.Stats.FlowNodes {
				layer["flow.max_nodes"] = max(layer["flow.max_nodes"], float64(n))
			}
			layer["motif.count_s"] += sec(tc.countTime)
			layer["motif.instances"] += float64(tc.instances)
			layer["psicore.decompose_s"] += sec(tc.decompose)
			layer["psicore.peel_s"] += sec(tc.decompose - tc.countTime)
			layer["core.locate_s"] += sec(tc.locate)
			layer["core.components"] += float64(tc.components)
			layer["iterative.presolve_s"] += sec(tc.presolve)
			layer["iterative.iters"] += float64(tc.iters)
			layer["iterative.skips"] += float64(tc.skips)
			layer["flow.probe_s"] += sec(tc.flow)
			layer["flow.probes"] += float64(tc.probes)
			layer["component.self_s"] += sec(tc.compSelf)
			layer["unattributed_s"] += sec(tc.unattrib)
		}
		if cfg.trace {
			rt1 := readRuntime()
			layer["core.located_frac"] = located / nsum
			layer["trace_overhead"] = traced / untraced
			layer["go.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / mib
			layer["go.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
			layer["go.heap_live_mb"] = rt1.liveBytes / mib
			for k, v := range layer {
				layers[k] = append(layers[k], v)
			}
		}
	}

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	// A pass is one cold solve of every case. Noise on a shared host only
	// ever adds time, so a pass is timed as the sum of each case's fastest
	// solve in the run (its wall time and its CPU time alike): a slow
	// spell during a few solves cannot move it.
	for i := range cases {
		m["solve_s"] += minOf(wall[i])
		m["cpu_s"] += minOf(cpu[i])
	}
	m["peak_rss_mb"] = rss
	// The cases are different queries with latencies apart by up to 2x;
	// a pooled median would fall in the gap between them, so the typical
	// query is the mean of the per-case medians.
	var p50 float64
	for _, xs := range wall {
		p50 += 1e3 * median(xs) / float64(len(wall))
	}
	m["query_p50_ms"] = p50
	m["query_p99_ms"] = quantile(queries, 0.99)
	out.notes = append(out.notes, fmt.Sprintf("%d passes, %d cold solves", passes, len(queries)))
	if !cfg.trace {
		return out, nil
	}
	for k, v := range layers {
		m[k] = median(v)
	}
	// No write path, no service layer and no open-loop generator in a
	// library workload: serve-mixed measures those.
	for _, k := range []string{"mutate_p50_ms", "mutate_p90_ms", "stream_first_p50_ms", "stream_final_p50_ms",
		"solver.mutate_ms", "solver.resolve_ms", "plan.first_answer_ms",
		"engine.query_ms", "http.overhead_ms", "http.rtt_ms",
		"service.hit_ratio", "service.computes", "service.shed", "bench.late_p99_ms", "failed_frac"} {
		m[k] = 0
	}
	return out, nil
}
