package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/flownet"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/psicore"
	"repro/internal/rational"
	"repro/internal/resilience"
)

// Options selects CoreExact's pruning strategies (Figure 10 ablates them
// individually) and its execution mode. DefaultOptions enables every
// pruning and runs serially.
type Options struct {
	// Pruning1 locates the CDS in the (⌈ρ′⌉,Ψ)-core, where ρ′ is the best
	// residual density observed during core decomposition. When disabled,
	// the weaker Theorem-1 bound ⌈kmax/|VΨ|⌉ locates the core.
	Pruning1 bool
	// Pruning2 refines the location per connected component: k″ = ⌈ρ″⌉
	// with ρ″ the maximum component density.
	Pruning2 bool
	// Grouped uses the construct+ grouped flow network (Algorithm 7);
	// meaningful for non-clique patterns only.
	Grouped bool
	// Iterative is the Greed++ iteration budget (internal/iterative) of
	// the anytime ladder's StageIterative rung (internal/plan), which runs
	// it on the densest component and streams its certified bounds; 0 or
	// less skips the rung. CoreExact and SearchComponent ignore it: a
	// component search goes straight from the located core to flow
	// probes, so the search, its answer and its stats are identical for
	// every budget.
	Iterative int
	// Workers bounds how many per-component searches (Algorithm 4
	// lines 5-20) run concurrently; values ≤ 1 run the engine serially.
	// Workers > 1 also parallelizes the clique-degree seeding of the
	// (k,Ψ)-core decomposition and Pruning2's per-component density
	// evaluation. The returned density is identical for every value: the
	// searches share a mutex-protected monotone lower bound, so sharing
	// only ever prunes work, never answers.
	Workers int
	// SeedWitness is an optional candidate witness — typically the answer
	// of a previous solve on a slightly different graph (see dsd.Solver's
	// mutation warm start). Its exact density on THIS graph is evaluated
	// during planning and adopted as the starting (lower, witness) pair
	// only if it beats the location bound, so a stale or bogus seed can
	// only fail to help, never change the answer: exactness is
	// unconditional. Vertex ids outside the graph invalidate the seed.
	SeedWitness []int32
	// Deadline is the graceful-degradation time budget (0 disables it).
	// When set, planning and the component searches run under a deadline
	// of Deadline from entry; searches the deadline interrupts return
	// their best certified state instead of an error, and the run's Result
	// comes back Degraded with a Bound interval containing the optimum.
	// A deadline that fires during planning — before any certified
	// (lower, witness) pair exists — still returns the deadline error:
	// degradation begins once there is something sound to return.
	Deadline time.Duration
	// Gap is the graceful-degradation accuracy budget (0 demands
	// exactness): a component search may stop once its certified upper
	// bound is within a factor (1+Gap) of the shared lower bound. The
	// returned density d then satisfies ρopt ≤ d·(1+Gap), and the Result
	// is Degraded with the certified Bound unless the searches happened to
	// prove exactness anyway.
	Gap float64
	// DecUpperBound marks the supplied decomposition's core numbers as
	// pointwise UPPER bounds on the true core numbers rather than exact
	// values — typically a pre-mutation peel carried across an edge batch
	// (psicore.UpperBound). Location and every core shrink stay sound,
	// because filtering by an over-estimate retains a superset of every
	// true core, and a component's max over-estimate still dominates its
	// optimum density; only the residual-density tracking is meaningless,
	// so the initial (lower, witness) pair comes from re-evaluated
	// subgraphs (the kmax-core vertices and SeedWitness), exactly as with
	// Pruning1 off. The returned density is identical either way — the
	// located cores are merely no smaller than with exact numbers.
	DecUpperBound bool
}

// DefaultIterativeBudget is DefaultOptions' Greed++ budget: the iteration
// ceiling of the anytime ladder's StageIterative rung and of Exact's
// starting witness. An iteration is one bucket-queue peel over the
// materialized instance links; iteration one is exactly the greedy peel,
// and the bounds tighten as O(1/T) beyond it.
const DefaultIterativeBudget = 16

// DefaultOptions is full CoreExact: all prunings on, construct+ on, the
// stream's Greed++ rung on, serial execution.
func DefaultOptions() Options {
	return Options{
		Pruning1: true, Pruning2: true, Grouped: true,
		Iterative: DefaultIterativeBudget,
	}
}

// Plan is the output of Algorithm 4's location steps (lines 1-4 plus
// Pruning2): the located (k,Ψ)-core's connected components, ordered
// densest first, together with the certified (lower, witness) pair the
// searches start from. Each component is an independent search unit:
// the engines execute a Plan directly, and dsd.Solver.PlanComponents
// hands it out for a component-by-component run of the same searches.
type Plan struct {
	// Dec is the (k,Ψ)-core decomposition the plan was located in.
	Dec *psicore.Decomposition
	// Components are the located core's connected components in original
	// vertex ids, densest first (when Pruning2 is on).
	Components [][]int32
	// KLocate is the core level the components were located at.
	KLocate int64
	// Lower is the certified density of Witness, the best subgraph known
	// before any component search runs.
	Lower   rational.R
	Witness []int32
	// Uppers[i] is a certified upper bound on Components[i]'s optimum
	// density (its maximum Ψ-core number — the optimum D has min internal
	// Ψ-degree ≥ ρ(D), so every vertex of D has core number ≥ ρ(D)).
	// Degraded runs report max(Lower, remaining Uppers) as the interval
	// top; searches tighten their slot as better certificates appear.
	Uppers []float64
	// Stats carries the location phase's share of the run stats
	// (Decompose timing, ReusedDecomposition).
	Stats Stats
}

// Empty reports that the graph holds no Ψ-instance at all, so the answer
// is the empty subgraph and no component search needs to run.
func (p *Plan) Empty() bool { return p.Dec.TotalInstances == 0 }

// PlanCoreExact runs Algorithm 4's location steps: the (k,Ψ)-core
// decomposition (reusing dec when non-nil), Pruning1's residual-density
// bound (or the Theorem-1 kmax-core fallback), the component split, and
// Pruning2's per-component refinement. The returned plan's components
// can then be searched in any order, in any process, as long as every
// search shares one monotone BoundSource seeded from (Lower, Witness).
//
// dec may be restricted (psicore.DecomposeWithin, Floor > 0): its
// counted classical kmax-core then starts the lower bound, so the
// located level is at least Floor and every core number the plan and
// its searches read is exact. With dec nil the whole graph is peeled.
func PlanCoreExact(ctx context.Context, g *graph.Graph, o motif.Oracle, opts Options, dec *psicore.Decomposition) (*Plan, error) {
	start := time.Now()
	var stats Stats
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	// Step 1: (k,Ψ)-core decomposition (Algorithm 4 line 1), with the
	// clique-degree seeding striped across workers when parallel — unless
	// the caller already holds one, in which case the whole step is free.
	if dec == nil {
		dsp := obs.StartFromContext(ctx, obs.SpanDecompose)
		var err error
		dec, err = psicore.DecomposeContext(ctx, g, o, workers)
		dsp.End()
		if err != nil {
			return nil, err
		}
		stats.Decompose = time.Since(start)
	} else {
		stats.ReusedDecomposition = true
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if dec.TotalInstances == 0 {
		return &Plan{Dec: dec, Stats: stats}, nil
	}
	p := int64(o.Size())
	lsp := obs.StartFromContext(ctx, obs.SpanLocate)
	defer lsp.End()

	// Step 2: locate the CDS in a core and establish the witness/lower
	// bound l (lines 2-4).
	var (
		witness []int32    // current best subgraph, original ids
		lower   rational.R // exact density of witness
	)
	if opts.Pruning1 && !opts.DecUpperBound {
		witness = dec.BestResidualVertices()
		lower = dec.BestResidual
	} else {
		// With Pruning1 off there is no residual tracking to read; with
		// DecUpperBound the tracking exists but certifies the WRONG graph
		// (pre-mutation), so trusting it could over-prune. Either way the
		// kmax-core vertices re-evaluated on THIS graph give a certified
		// pair.
		witness = dec.KMaxCoreVertices()
		lower, _ = densityOf(g, o, witness)
		// Theorem 1 guarantees ρ(R_kmax) ≥ kmax/|VΨ|, so the witness's
		// exact density already dominates the kmax/p bound: witness and
		// lower stay consistent by construction (asserted by
		// TestTheorem1BoundImpliedByKMaxCore).
	}
	if dec.Floor > 0 && dec.FloorDensity.Greater(lower) {
		// A restricted decomposition is exact only at levels ≥ Floor =
		// ⌈ρ(K)⌉; starting from K's density keeps kLocate there.
		lower = dec.FloorDensity
		witness = append([]int32(nil), dec.FloorWitness...)
	}
	if len(opts.SeedWitness) > 0 && witnessValid(g, opts.SeedWitness) {
		// Warm-start seed: never trusted, always re-evaluated. The seed's
		// exact density on this graph either raises the bound (a denser
		// start, fewer flow solves) or is discarded.
		if d, mu := densityOf(g, o, opts.SeedWitness); mu > 0 && d.Greater(lower) {
			lower = d
			witness = append([]int32(nil), opts.SeedWitness...)
		}
	}
	kLocate := lower.Ceil()
	coreVerts := dec.CoreVertices(kLocate)
	if len(coreVerts) == 0 {
		// ⌈ρ′⌉ can exceed kmax only through rounding of an empty bound;
		// fall back to the kmax-core.
		coreVerts = dec.KMaxCoreVertices()
	}
	coreSub := g.InducedSorted(coreVerts) // CoreVertices ascend
	comps := coreSub.ConnectedComponents()

	// components in original ids; local keeps their coreSub ids.
	components := make([][]int32, 0, len(comps))
	local := comps[:0]
	for _, c := range comps {
		if int64(len(c)) < p {
			continue
		}
		orig := make([]int32, len(c))
		for i, lv := range c {
			orig[i] = coreSub.Orig[lv]
		}
		components = append(components, orig)
		local = append(local, c)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pruning2: per-component densities refine k″ and the witness. A
	// Ψ-instance of the core lies inside one component, so one count over
	// the core (striped across the pool) gives each component's µ: the
	// Ψ-degree sum of its members over |VΨ|.
	if opts.Pruning2 {
		_, deg := motif.CountAndDegreesWorkers(o, coreSub.Graph, workers)
		dens := make([]rational.R, len(components))
		for i, c := range local {
			var sum int64
			for _, lv := range c {
				sum += deg[lv]
			}
			dens[i] = rational.New(sum/p, int64(len(c)))
		}
		for i, c := range components {
			if dens[i].Greater(lower) {
				lower = dens[i]
				witness = c
			}
		}
		// Search densest components first so l rises quickly.
		idx := make([]int, len(components))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return dens[idx[b]].Less(dens[idx[a]]) })
		ordered := make([][]int32, len(components))
		for i, j := range idx {
			ordered[i] = components[j]
		}
		components = ordered
		k2 := lower.Ceil()
		if k2 > kLocate {
			kLocate = k2
			filtered := components[:0]
			for _, c := range components {
				keep := filterCore(c, dec, kLocate)
				if int64(len(keep)) >= p {
					filtered = append(filtered, keep)
				}
			}
			components = filtered
		}
	}
	lsp.SetInt("components", int64(len(components)))
	lsp.SetInt("k_locate", kLocate)
	uppers := make([]float64, len(components))
	for i, c := range components {
		uppers[i] = float64(maxCoreOf(c, dec))
	}
	return &Plan{
		Dec:        dec,
		Components: components,
		KLocate:    kLocate,
		Lower:      lower,
		Witness:    witness,
		Uppers:     uppers,
		Stats:      stats,
	}, nil
}

// CoreExact is the paper's core-based exact algorithm (Algorithm 4) over
// any motif oracle: h-clique density (CDS), or a general pattern with the
// construct+ network (PDS, Section 7.2). It reuses dec, a precomputed
// (k,Ψ)-core decomposition of g for o, when non-nil — step 1 of Algorithm
// 4, the dominant fixed cost on dense-motif graphs, is then skipped, which
// is how a warm dsd.Solver answers a repeat-Ψ query. dec must be exactly
// psicore.Decompose(g, o)'s result, a psicore.DecomposeWithin result, or
// an upper bound on the former flagged by Options.DecUpperBound; it is
// only read, so one decomposition may serve any number of concurrent
// searches; nil computes one (see PlanCoreExact).
//
// The decomposition and every component search poll ctx and return
// (nil, ctx.Err()) once it is cancelled. Cancellation is cooperative at
// flow-solve granularity: the algorithm returns after at most one more
// min-cut.
func CoreExact(ctx context.Context, g *graph.Graph, o motif.Oracle, opts Options, dec *psicore.Decomposition) (*Result, error) {
	start := time.Now()
	// Graceful degradation: the searches run under the deadline-bounded
	// dctx, while the caller's ctx stays the authority on real
	// cancellation. A search the deadline stops returns ctx.Err(); the
	// driver reclassifies that as "stop and degrade" when — and only when
	// — the outer ctx is still alive.
	dctx := ctx
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = resilience.WallDeadline(ctx, start.Add(opts.Deadline))
		defer cancel()
	}
	plan, err := PlanCoreExact(dctx, g, o, opts, dec)
	if err != nil {
		// A deadline mid-plan leaves nothing certified to return.
		return nil, err
	}
	stats := plan.Stats
	if plan.Empty() {
		r := &Result{}
		r.Stats = stats
		r.Stats.Total = time.Since(start)
		return r, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	p := int64(o.Size())

	// Step 3: per-component Dinkelbach search with shrinking flow networks
	// (lines 5-20). The searches share the (lower, witness) pair through
	// a monotone cell: an improvement published by one component
	// immediately raises the probe α and shrinks the cores of every other
	// component, whether they run on this goroutine or across the worker
	// pool.
	cell := &boundCell{lower: plan.Lower, witness: plan.Witness}
	perComp := make([]compStats, len(plan.Components))
	errs := make([]error, len(plan.Components))
	slots := newUpperSlots(plan.Uppers)
	runIndexed(workers, len(plan.Components), func(i int) {
		perComp[i], errs[i] = searchComponent(
			dctx, g, o, plan.Dec, opts, cell, plan.Components[i], plan.KLocate, p, &slots[i])
	})
	deadlined := false
	for _, err := range errs {
		if err != nil {
			// Search errors are only ever context errors (the searches poll
			// ctx); outer ctx alive + dctx dead identifies the degradation
			// deadline as the cause, for every component at once.
			if opts.Deadline > 0 && ctx.Err() == nil && dctx.Err() != nil {
				deadlined = true
				break
			}
			return nil, err
		}
	}
	gapped := false
	for _, cs := range perComp {
		stats.FlowNodes = append(stats.FlowNodes, cs.flowNodes...)
		stats.Iterations += cs.iterations
		if cs.gapStop {
			gapped = true
		}
		stats.FlowTime += cs.flowNS
	}

	_, witness := cell.snapshot()
	res := Evaluate(g, o, witness)
	res.Stats = stats
	res.Stats.Total = time.Since(start)
	if deadlined || gapped {
		// The interval top: every component optimum sits at or below its
		// slot, so ρopt ≤ max(returned density, max slot). When that max
		// does not exceed the returned density the searches proved
		// exactness after all (every early stop was overtaken by the
		// shared bound) and the answer is not degraded.
		upper := res.Density.Float()
		for i := range slots {
			if u := slots[i].get(); u > upper {
				upper = u
			}
		}
		if res.Density.CmpFloat(upper) < 0 {
			res.Degraded = true
			res.Bound = Bound{Lower: res.Density, Upper: upper}
		}
	}
	return res, nil
}

// upperSlot holds one component's certified upper bound on its optimum
// density. The owning search lowers it as better certificates appear
// (empty-cut probe α, core shrink below p); CoreExact reads the
// survivors when a degraded run assembles its Bound.
// Writes are monotone decreasing; the CAS loop makes concurrent readers
// safe even though each slot has a single writer. notify, when set,
// observes each successful tightening (single writer ⇒ the calls are
// serialized and monotone).
type upperSlot struct {
	bits   atomic.Uint64
	notify func(float64)
}

func newUpperSlots(uppers []float64) []upperSlot {
	slots := make([]upperSlot, len(uppers))
	for i, u := range uppers {
		slots[i].bits.Store(math.Float64bits(u))
	}
	return slots
}

// lower tightens the slot to v when v is smaller; nil slots (plain
// SearchComponent callers without degradation) are no-ops.
func (s *upperSlot) lower(v float64) {
	if s == nil {
		return
	}
	for {
		old := s.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if s.bits.CompareAndSwap(old, math.Float64bits(v)) {
			if s.notify != nil {
				s.notify(v)
			}
			return
		}
	}
}

func (s *upperSlot) get() float64 { return math.Float64frombits(s.bits.Load()) }

// compStats is the per-component slice of Stats, merged in component
// order after the searches so the aggregate is independent of scheduling.
type compStats struct {
	flowNodes  []int
	iterations int
	gapStop    bool // search stopped at the Options.Gap accuracy budget
	// flowNS attributes the component's wall time to flow solves
	// (Stats.FlowTime).
	flowNS time.Duration
}

// searchComponent runs Algorithm 4's per-component search (lines 5-20)
// on one connected component of the located core, with the paper's
// bisection of α replaced by Dinkelbach steps on exact int64 networks.
// Every probe is at α = p/q, the shared lower bound — the exact density
// of a real subgraph. An empty min-cut side certifies that nothing in the
// component beats it, which ends the search; a non-empty side is a
// strictly denser subgraph, published to the shared bound at once before
// the core shrinks to ⌈ρ⌉ and the next probe runs at the raised bound.
//
// The shared bound is used two ways, each conservative: as the probe α,
// and to shrink to a higher core (a subgraph beating density d lies in
// the ⌈d⌉-core), before the first network as well as between probes.
// Upper bounds from core numbers and empty cuts feed slot for the
// degraded and anytime paths. As in the paper, the search goes straight
// from the located core to flow probes: no Greed++ pre-solve runs here.
func searchComponent(ctx context.Context, g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition,
	opts Options, cell BoundSource, comp []int32, kLocate int64, p int64,
	slot *upperSlot) (cs compStats, err error) {
	if err := ctx.Err(); err != nil {
		return cs, err
	}
	// Trace scope: one span per component search, flow children under
	// it. tr is nil on untraced runs, making every span call below
	// a no-op — the hot loop stays allocation-free with tracing off.
	tr, parent := obs.FromContext(ctx)
	sp := tr.Start(obs.SpanComponent, parent)
	if sp != nil {
		ctx = obs.WithSpan(ctx, tr, sp)
		sp.SetInt("size", int64(len(comp)))
		defer func() {
			sp.SetInt("flow_solves", int64(cs.iterations))
			sp.End()
		}()
	}
	lower := cell.Bound()
	cur := comp
	curK := kLocate
	// Shrink by the shared lower bound before building anything (line 6).
	if lk := lower.Ceil(); lk > curK {
		cur = filterCore(cur, dec, lk)
		curK = lk
	}
	if int64(len(cur)) < p {
		// Nothing denser than the shared bound survives the shrink, so the
		// component optimum is at most that bound.
		slot.lower(lower.Float())
		return cs, nil
	}

	// Per-component upper bound: the component optimum D has, within
	// itself, min Ψ-degree ≥ ρ(D) (removing a lighter vertex would raise
	// the density), so every vertex of D has core number ≥ ρ(D) and the
	// component's max core number dominates ρ(D) — tighter than the global
	// kmax for every component but the one carrying it.
	uc := float64(maxCoreOf(cur, dec))
	slot.lower(uc)

	var (
		sd  *flownet.Side
		sub *graph.Subgraph // cur's induced subgraph, built with sd
	)
	for {
		if err := ctx.Err(); err != nil {
			return cs, err
		}
		alpha := cell.Bound()
		// Accuracy budget (graceful degradation): stop once the certified
		// interval is within a relative (1+Gap) of the shared lower bound —
		// the component optimum is at most uc ≤ bound·(1+Gap), which the
		// driver reports through Result.Bound instead of searching on.
		if opts.Gap > 0 && !alpha.IsZero() && uc <= alpha.Float()*(1+opts.Gap) {
			cs.gapStop = true
			return cs, nil
		}
		// Relocate in a higher core once the bound — raised by this
		// search's own witness or a sibling's — crosses an integer boundary
		// (line 17, §6.1 ③): the optimum, if it beats the bound, lies in
		// the ⌈bound⌉-core, so networks shrink monotonically. The old
		// side's network arena is already sized for the larger graph, so
		// the new side recycles it; between relocations every probe only
		// re-capacitates the side's one network.
		if lk := alpha.Ceil(); lk > curK {
			if keep := filterCore(cur, dec, lk); int64(len(keep)) >= p && len(keep) < len(cur) {
				cur, curK, sub = keep, lk, nil
			}
		}
		if sub == nil {
			sub = g.Induced(cur)
			sd = flownet.NewSide(sd.Arena(), sub.Graph, o, opts.Grouped)
		}
		ft := time.Now()
		fsp := tr.Start(obs.SpanFlow, sp)
		cs.flowNodes = append(cs.flowNodes, sd.Nodes())
		cs.iterations++
		vs, err := probe(ctx, sd, alpha)
		fsp.SetInt("nodes", int64(sd.Nodes()))
		fsp.SetAttr("alpha", alpha.String())
		fsp.SetInt("cut", int64(len(vs)))
		fsp.End()
		cs.flowNS += time.Since(ft)
		if err != nil {
			// Abandoned mid-flow: nothing was certified at this α.
			return cs, err
		}
		if len(vs) == 0 {
			// The exact certificate: nothing in the component beats α.
			slot.lower(alpha.Float())
			return cs, nil
		}
		best := toOrig(sub, vs)
		d, _ := densityOf(g, o, best)
		if !d.Greater(alpha) {
			return cs, fmt.Errorf("core: flow probe at α=%v returned a subgraph of density %v", alpha, d)
		}
		cell.Improve(d, best)
	}
}

// maxCoreOf returns the maximum Ψ-core number among vs.
func maxCoreOf(vs []int32, dec *psicore.Decomposition) int64 {
	var k int64
	for _, v := range vs {
		if dec.Core[v] > k {
			k = dec.Core[v]
		}
	}
	return k
}

// filterCore keeps the vertices of vs whose Ψ-core number is ≥ k.
func filterCore(vs []int32, dec *psicore.Decomposition, k int64) []int32 {
	out := make([]int32, 0, len(vs))
	for _, v := range vs {
		if dec.Core[v] >= k {
			out = append(out, v)
		}
	}
	return out
}

// toOrig maps local subgraph vertex ids back to original graph ids.
func toOrig(sub *graph.Subgraph, vs []int32) []int32 {
	out := make([]int32, len(vs))
	for i, lv := range vs {
		out[i] = sub.Orig[lv]
	}
	return out
}
