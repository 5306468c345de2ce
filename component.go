package dsd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/motif"
	"repro/internal/rational"
)

// This file is the Solver's component-level surface: the distributed
// sharding layer (internal/shard, the dsdd v3 wire) decomposes one
// CoreExact query into per-component sub-searches, and these entrypoints
// let a coordinator plan locally, ship components to shard workers, and
// let each worker answer through its own per-graph Solver memo. The
// split is exactly Algorithm 4's: PlanComponents is the location phase
// (steps 1-4 + Pruning2), SolveComponent one per-component flow search
// (lines 5-20), EvaluateWitness the final merge's certificate. Each is
// also a Snapshot method, so a coordinator can pin one version for all
// three steps of a query.

// ComponentPlan is the location phase of one CoreExact query: the
// connected components of the located (k,Ψ)-core (original vertex ids,
// densest first), the core level they were located at, and the certified
// (lower bound, witness) the searches start from. Components are
// independent search units — the decomposition the plan was located in
// stays memoized on the Solver, so SolveComponent calls for the same
// query reuse it for free.
type ComponentPlan struct {
	Components [][]int32
	KLocate    int64
	// LowerNum/LowerDen is the exact density of Witness (0/0 when the
	// graph holds no Ψ-instance at all).
	LowerNum int64
	LowerDen int64
	Witness  []int32
	// Uppers[i] is a certified upper bound on Components[i]'s optimum
	// density — what a deadline-degrading coordinator reports as its
	// interval top for components the deadline left unsearched.
	Uppers []float64
	// Empty reports the graph holds no Ψ-instance: the answer is the
	// empty subgraph and no component search needs to run.
	Empty bool
	// Decompose is the time the location phase spent computing the
	// (k,Ψ)-core decomposition; ReusedDecomposition reports it came out
	// of the Solver's memo instead (Decompose is then zero) — the same
	// pair Solve stamps on in-process runs, carried here so a distributed
	// run's QueryStats stay truthful.
	Decompose           time.Duration
	ReusedDecomposition bool
}

// PlanComponents runs the location phase of q (which must resolve to
// AlgoCoreExact) on the Solver's graph: the (k,Ψ)-core decomposition —
// served from the Solver's memo when warm — Pruning1's bound, the
// component split, and Pruning2's refinement.
func (s *Solver) PlanComponents(ctx context.Context, q Query) (*ComponentPlan, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	vs, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	return planComponents(ctx, nq, o, vs)
}

// PlanComponents is Solver.PlanComponents on the snapshot's version.
func (sn *Snapshot) PlanComponents(ctx context.Context, q Query) (*ComponentPlan, error) {
	nq, o, err := sn.normalize(q)
	if err != nil {
		return nil, err
	}
	return planComponents(ctx, nq, o, sn.vs)
}

func planComponents(ctx context.Context, nq Query, o motif.Oracle, vs *verState) (*ComponentPlan, error) {
	if nq.Algo != AlgoCoreExact {
		return nil, fmt.Errorf("dsd: component plans exist only for %s queries (got %s)", AlgoCoreExact, nq.Algo)
	}
	st := vs.psiFor(o)
	opts := nq.coreOptions()
	decStart := time.Now()
	dec, reused, _, err := st.tracedCoreExactDec(ctx, vs, coreExactRequest(opts, false))
	if err != nil {
		return nil, err
	}
	decTime := time.Since(decStart)
	if reused {
		decTime = 0
	}
	// Same warm start Solve's core-exact path gets: the carried witness's
	// density is re-evaluated by PlanCoreExact before use.
	opts.SeedWitness = st.seedWitness()
	plan, err := core.PlanCoreExact(ctx, vs.g, o, opts, dec)
	if err != nil {
		return nil, err
	}
	return &ComponentPlan{
		Components:          plan.Components,
		KLocate:             plan.KLocate,
		LowerNum:            plan.Lower.Num,
		LowerDen:            plan.Lower.Den,
		Witness:             plan.Witness,
		Uppers:              plan.Uppers,
		Empty:               plan.Empty(),
		Decompose:           decTime,
		ReusedDecomposition: reused,
	}, nil
}

// ComponentFloor is the live lower bound of one in-flight component
// search: a monotone density floor with no witness attached, seeded from
// the coordinator's global bound at dispatch time and raised through
// Raise as sibling components report improvements — each raise lifts the
// running search's next probe α and shrinks its cores. Safe for
// concurrent use.
type ComponentFloor struct {
	cell *core.FloorCell
}

// NewComponentFloor returns a floor seeded at num/den (den ≤ 0 seeds the
// empty density, below everything).
func NewComponentFloor(num, den int64) *ComponentFloor {
	return &ComponentFloor{cell: core.NewFloorCell(ratio(num, den))}
}

// Raise lifts the floor to num/den iff it strictly beats the current
// floor, reporting whether it did.
func (f *ComponentFloor) Raise(num, den int64) bool {
	return f.cell.Raise(ratio(num, den))
}

// ratio is the wire-decoding constructor for densities (see
// rational.Decode: malformed pairs become the empty density).
func ratio(num, den int64) rational.R { return rational.Decode(num, den) }

// ComponentResult is one component search's contribution: the best
// subgraph found inside the component — a nil Witness when nothing in it
// beat the floor — with its exact density and the search's counters.
type ComponentResult struct {
	DensityNum int64
	DensityDen int64
	Witness    []int32
	// FlowSolves counts min-cut computations. A component search runs no
	// Greed++ pre-solve, so PreSolveIters, PreSolveSkipped and
	// PreSolveTime are always zero; they remain so existing callers keep
	// compiling.
	FlowSolves      int
	PreSolveIters   int
	PreSolveSkipped bool
	// Elapsed is the search's wall-clock time; FlowTime its flow-solve
	// share (see QueryStats).
	Elapsed      time.Duration
	FlowTime     time.Duration
	PreSolveTime time.Duration
	// Upper is the search's final certified upper bound on the
	// component's optimum density (see core.ComponentOutcome.Upper).
	Upper float64
}

// SolveComponent runs one per-component CoreExact flow search for q on
// the vertex set comp, which must be a component of a ComponentPlan for
// the same (graph, query) — the shard worker's half of a distributed
// CoreExact run. kLocate is the plan's core level, floor the search's
// live lower bound (nil starts from the empty density). The
// decomposition comes from the Solver's memo, so a worker answering many
// components of one query pays for it once.
//
// Exactness mirrors the in-process engine: the floor is only ever a
// density of a real subgraph of the same graph, so every use — probe
// α, core shrink — is conservative, and the returned witness is
// certified by its own recomputed density.
func (s *Solver) SolveComponent(ctx context.Context, q Query, comp []int32, kLocate int64, floor *ComponentFloor) (*ComponentResult, error) {
	start := time.Now()
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	vs, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	return solveComponent(ctx, nq, o, vs, comp, kLocate, floor, start)
}

// SolveComponent is Solver.SolveComponent on the snapshot's version.
func (sn *Snapshot) SolveComponent(ctx context.Context, q Query, comp []int32, kLocate int64, floor *ComponentFloor) (*ComponentResult, error) {
	start := time.Now()
	nq, o, err := sn.normalize(q)
	if err != nil {
		return nil, err
	}
	return solveComponent(ctx, nq, o, sn.vs, comp, kLocate, floor, start)
}

func solveComponent(ctx context.Context, nq Query, o motif.Oracle, vs *verState,
	comp []int32, kLocate int64, floor *ComponentFloor, start time.Time) (*ComponentResult, error) {
	if nq.Algo != AlgoCoreExact {
		return nil, fmt.Errorf("dsd: component searches exist only for %s queries (got %s)", AlgoCoreExact, nq.Algo)
	}
	if len(comp) == 0 {
		return nil, fmt.Errorf("dsd: empty component")
	}
	if floor == nil {
		floor = NewComponentFloor(0, 0)
	}
	st := vs.psiFor(o)
	opts := nq.coreOptions()
	dec, _, _, err := st.coreExactDec(ctx, vs, decRequest{workers: 1, restrict: opts.Pruning1})
	if err == nil && dec.Floor > kLocate {
		// The plan was located below the levels this restricted
		// decomposition holds exactly (another Solver planned it on other
		// memo state), so search on the whole-graph peel.
		dec, _, err = st.decomposition(ctx, vs.g, 1)
	}
	if err != nil {
		return nil, err
	}
	// Degradation budgets are a whole-query policy the coordinator owns:
	// a worker degrading its own slice independently would break the
	// merged certificate, so component searches always run exact.
	opts.Deadline = 0
	opts.Gap = 0
	out, err := core.SearchComponent(ctx, vs.g, o, dec, opts, floor.cell, comp, kLocate, nil)
	if err != nil {
		return nil, err
	}
	return &ComponentResult{
		DensityNum: out.Density.Num,
		DensityDen: out.Density.Den,
		Witness:    out.Witness,
		FlowSolves: out.FlowSolves,
		Elapsed:    time.Since(start),
		FlowTime:   out.FlowTime,
		Upper:      out.Upper,
	}, nil
}

// EvaluateWitness builds the full Result (µ, exact density, sorted
// vertex set) for the subgraph induced by vs under q's motif — the
// coordinator's final merge step, recomputing the winning witness's
// certificate from the graph instead of trusting wire-carried numbers.
// A nil/empty vs yields the empty result.
func (s *Solver) EvaluateWitness(q Query, vs []int32) (*Result, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	st, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	return evaluateWitness(nq, o, st, vs), nil
}

// EvaluateWitness is Solver.EvaluateWitness on the snapshot's version.
func (sn *Snapshot) EvaluateWitness(q Query, vs []int32) (*Result, error) {
	nq, o, err := sn.normalize(q)
	if err != nil {
		return nil, err
	}
	return evaluateWitness(nq, o, sn.vs, vs), nil
}

func evaluateWitness(nq Query, o motif.Oracle, st *verState, vs []int32) *Result {
	res := core.Evaluate(st.g, o, vs)
	if nq.Algo == AlgoCoreExact {
		// The coordinator's merged answer is this version's best known
		// witness — carry it for the post-mutation warm start, exactly as
		// the in-process core-exact path does.
		st.psiFor(o).recordWitness(res.Vertices)
	}
	return res
}
