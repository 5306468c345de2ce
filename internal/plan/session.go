package plan

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/kcore"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/psicore"
	"repro/internal/resilience"
)

// Cold is what a session without a memoized decomposition reads.
type Cold struct {
	// Classical is g's classical core decomposition, which the
	// approximation rung reads for h-cliques with h ≥ 3; nil computes it.
	Classical *kcore.Decomposition
	// Decompose returns the decomposition the session locates in; the
	// ladder calls it once the approximation rung has answered. It may
	// be restricted (Floor > 0). nil peels the whole graph.
	Decompose func(context.Context) (*psicore.Decomposition, error)
}

// Run executes one CoreExact-class query as an anytime refinement
// session, pushing every certified tightening to sink and returning the
// terminal result — equal in density value to what the plain CoreExact
// driver returns for the same (g, o, opts), because the ladder only ever
// ADDS certified lower bounds to the shared cell (memo witnesses, the
// CoreApp subgraph, Greed++ prefixes are all real subgraphs) and extra
// lower bounds can only prune the searches, never change their optimum.
//
// dec is the memoized (k,Ψ)-core decomposition when the caller holds one
// (the warm path: planning is nearly free, so the approximation rung is
// skipped); nil on the cold path, where the ladder runs CoreApp first to
// put a certified interval on the wire before paying for the
// decomposition, which cold supplies.
//
// The ladder choice is traced as one SpanPlan span (rungs, components,
// budgets). Cancellation and Deadline/Gap degradation follow the
// CoreExact driver contract exactly: a deadline mid-plan returns an
// error, a deadline mid-search returns a Degraded final with a certified
// interval, and a cancelled ctx returns ctx.Err().
func Run(ctx context.Context, g *graph.Graph, o motif.Oracle, opts core.Options, dec *psicore.Decomposition, cold Cold, sink func(Answer)) (*core.Result, error) {
	start := time.Now()
	em := NewEmitter(sink)
	sp := obs.StartFromContext(ctx, obs.SpanPlan)
	defer sp.End()
	var rungs []string
	defer func() { sp.SetAttr("rungs", strings.Join(rungs, ",")) }()

	dctx := ctx
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = resilience.WallDeadline(ctx, start.Add(opts.Deadline))
		defer cancel()
	}

	// Rung 1 — memo: replay the recorded witness of an earlier run. Its
	// density is exact by construction, so a warm stream's first byte is
	// one tiny induced-subgraph evaluation away.
	if w := opts.SeedWitness; len(w) > 0 && witnessInRange(g, w) {
		if ev := core.Evaluate(g, o, w); ev.Mu > 0 {
			if em.Improve(ev.Density, ev.Vertices, StageMemo) {
				rungs = append(rungs, "memo")
			}
		}
	}

	// Rung 2 — approximation, cold path only: CoreApp's output certifies
	// both ends at once (it is a |VΨ|-approximation, so the optimum is at
	// most p·ρ(CoreApp)), giving a full interval before the decomposition
	// is paid for. The upper end is inflated by a couple of ulps so the
	// float product can never round below the true p·ρ bound.
	if dec == nil {
		if ca := core.CoreApp(g, o, cold.Classical); ca.Mu > 0 {
			em.Improve(ca.Density, ca.Vertices, StageApprox)
			u := float64(o.Size()) * ca.Density.Float()
			em.Tighten(math.Nextafter(u*(1+1e-12), math.Inf(1)), StageApprox)
			rungs = append(rungs, "approx")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Rung 3 — location: decomposition (unless memoized), Pruning1/2, the
	// component split, and the per-component core-number upper bounds.
	// A deadline mid-plan leaves nothing certified to return — the same
	// contract as the CoreExact driver.
	if dec == nil && cold.Decompose != nil {
		var err error
		if dec, err = cold.Decompose(dctx); err != nil {
			return nil, err
		}
	}
	plan, err := core.PlanCoreExact(dctx, g, o, opts, dec)
	if err != nil {
		return nil, err
	}
	stats := plan.Stats
	sp.SetInt("components", int64(len(plan.Components)))
	if plan.Empty() {
		r := &core.Result{}
		r.Stats = stats
		r.Stats.Total = time.Since(start)
		em.Final(r)
		return r, nil
	}
	em.Install(plan.Lower, plan.Witness, plan.Uppers, StagePlan)
	rungs = append(rungs, "plan")

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	deadlined := false

	// Rung 4 — adaptive Greed++ on the densest component: chunked
	// iterations whose (prefix density, max-load/T) certificates tighten
	// both ends between chunks, long before the first flow network is
	// built. Its bounds reach the searches below only through the shared
	// emitter cell, so this rung only ever adds bounds — it cannot change
	// the final answer.
	if opts.Iterative > 0 && len(plan.Components) > 0 {
		comp := plan.Components[0]
		sub := g.Induced(comp)
		it := iterative.New(sub.Graph, o)
		it.Progress = func() {
			if lb, wit := it.Lower(); len(wit) > 0 {
				orig := make([]int32, len(wit))
				for j, v := range wit {
					orig[j] = sub.Orig[v]
				}
				em.Improve(lb, orig, StageIterative)
			}
			em.TightenComp(0, it.UpperFloat(), StageIterative)
		}
		if _, err := it.RunAdaptive(dctx, opts.Iterative); err != nil {
			if opts.Deadline > 0 && ctx.Err() == nil && dctx.Err() != nil {
				deadlined = true
			} else {
				return nil, err
			}
		}
		rungs = append(rungs, "iterative")
	}

	// Rung 5 — exact per-component flow searches, sharing the emitter
	// as their monotone cell: every witness improvement and every upper
	// certificate (empty-cut probe α, core shrink) becomes a stream event
	// the moment it is known.
	outs := make([]*core.ComponentOutcome, len(plan.Components))
	errs := make([]error, len(plan.Components))
	if !deadlined {
		cell := stageCell{em: em, stage: StageSearch}
		pool(workers, len(plan.Components), func(i int) {
			outs[i], errs[i] = core.SearchComponent(
				dctx, g, o, plan.Dec, opts, cell, plan.Components[i], plan.KLocate,
				func(v float64) { em.TightenComp(i, v, StageSearch) })
		})
		rungs = append(rungs, "search")
	}
	for _, err := range errs {
		if err != nil {
			if opts.Deadline > 0 && ctx.Err() == nil && dctx.Err() != nil {
				deadlined = true
				break
			}
			return nil, err
		}
	}
	gapped := false
	for _, out := range outs {
		if out == nil {
			continue
		}
		stats.FlowNodes = append(stats.FlowNodes, out.FlowNodes...)
		stats.Iterations += out.FlowSolves
		if out.GapStop {
			gapped = true
		}
		stats.FlowTime += out.FlowTime
	}

	_, witness, _ := em.Snapshot()
	res := core.Evaluate(g, o, witness)
	res.Stats = stats
	res.Stats.Total = time.Since(start)
	if deadlined || gapped {
		// The emitter's upper end already folds every certificate the
		// session saw (plan slots, Greed++ loads, probe αs), so it IS the
		// degraded interval top; when it does not exceed the density the
		// searches proved exactness after all.
		upper := em.Upper()
		if res.Density.CmpFloat(upper) < 0 {
			res.Degraded = true
			res.Bound = core.Bound{Lower: res.Density, Upper: upper}
		}
	}
	em.Final(res)
	return res, nil
}

// witnessInRange guards a memoized witness against graphs that shrank
// under mutation since it was recorded.
func witnessInRange(g *graph.Graph, vs []int32) bool {
	n := int32(g.N())
	for _, v := range vs {
		if v < 0 || v >= n {
			return false
		}
	}
	return true
}

// pool runs fn(0..n-1) across min(workers, n) goroutines — the planner's
// private copy of the engine's indexed worker pool.
func pool(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
