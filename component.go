package dsd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rational"
)

// This file is the Solver's component-level surface: one CoreExact
// query split into the layers Solve runs in one call, so a caller can
// time and inspect each (the dsdperf benchmark's per-layer trace does).
// The split is exactly Algorithm 4's: PlanComponents is the location
// phase (steps 1-4 + Pruning2), SolveComponent one per-component flow
// search (lines 5-20), EvaluateWitness the certificate of the best
// witness found. All three read the same per-Ψ memo as Solve.

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
	// Empty reports the graph holds no Ψ-instance: the answer is the
	// empty subgraph and no component search needs to run.
	Empty bool
	// Decompose is the time the location phase spent computing the
	// (k,Ψ)-core decomposition; ReusedDecomposition reports it came out
	// of the Solver's memo instead (Decompose is then zero) — the same
	// pair Solve stamps on its QueryStats.
	Decompose           time.Duration
	ReusedDecomposition bool
}

// PlanComponents runs the location phase of q (which must resolve to
// AlgoCoreExact) on the Solver's graph: the (k,Ψ)-core decomposition —
// served from the Solver's memo when warm, and on a version made by
// Mutate the carried upper bound, exactly as Solve locates — Pruning1's
// bound, the component split, and Pruning2's refinement.
func (s *Solver) PlanComponents(ctx context.Context, q Query) (*ComponentPlan, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	vs, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	if nq.Algo != AlgoCoreExact {
		return nil, fmt.Errorf("dsd: component plans exist only for %s queries (got %s)", AlgoCoreExact, nq.Algo)
	}
	st := vs.psiFor(o)
	opts := nq.coreOptions()
	decStart := time.Now()
	dec, reused, bounded, err := st.coreExactDec(ctx, vs, opts.Workers)
	if err != nil {
		return nil, err
	}
	decTime := time.Since(decStart)
	if reused {
		decTime = 0
	}
	// Same location and warm start Solve's core-exact path gets: the
	// carried witness's density is re-evaluated by PlanCoreExact before
	// use.
	opts.DecUpperBound = bounded
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
		Empty:               plan.Empty(),
		Decompose:           decTime,
		ReusedDecomposition: reused,
	}, nil
}

// ComponentFloor is the live lower bound of one in-flight component
// search: a monotone density floor with no witness attached, seeded with
// the best density known when the search starts and raised through
// Raise as other components report improvements — each raise lifts the
// running search's next probe α and shrinks its cores. Safe for
// concurrent use.
type ComponentFloor struct {
	cell *core.Emitter
}

// NewComponentFloor returns a floor seeded at num/den (den ≤ 0 seeds the
// empty density, below everything).
func NewComponentFloor(num, den int64) *ComponentFloor {
	f := &ComponentFloor{cell: core.NewEmitter(nil)}
	f.Raise(num, den)
	return f
}

// Raise lifts the floor to num/den iff it strictly beats the current
// floor, reporting whether it did.
func (f *ComponentFloor) Raise(num, den int64) bool {
	return f.cell.Improve(ratio(num, den), nil, core.StageSearch)
}

// ratio builds a density from a numerator/denominator pair (see
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
}

// SolveComponent runs one per-component CoreExact flow search for q on
// the vertex set comp, which must be a component of a ComponentPlan for
// the same (graph, query). kLocate is the plan's core level, floor the
// search's live lower bound (nil starts from the empty density). The
// decomposition comes from the Solver's memo, through the same accessor
// and preference order as PlanComponents, so the components of one query
// pay for it once.
//
// Exactness mirrors Solve: the floor is only ever a density of a real
// subgraph of the same graph, so every use — probe α, core shrink — is
// conservative, and the returned witness is certified by its own
// recomputed density.
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
	dec, _, _, err := st.coreExactDec(ctx, vs, opts.Workers)
	if err == nil && dec.Floor > kLocate {
		// The plan was located below the levels this restricted
		// decomposition holds exactly (it was planned on other memo
		// state), so search on the whole-graph peel.
		dec, _, err = st.decomposition(ctx, vs.g, 1)
	}
	if err != nil {
		return nil, err
	}
	// Degradation budgets are a whole-query policy: a component search
	// degrading on its own would not certify the query's interval, so it
	// always runs exact.
	opts.Deadline = 0
	opts.Gap = 0
	out, err := core.SearchComponent(ctx, vs.g, o, dec, opts, floor.cell, comp, kLocate)
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
	}, nil
}

// EvaluateWitness builds the full Result (µ, exact density, sorted
// vertex set) for the subgraph induced by vs under q's motif,
// recomputing the witness's certificate from the graph. A nil/empty vs
// yields the empty result.
func (s *Solver) EvaluateWitness(q Query, vs []int32) (*Result, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	st, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	res := core.Evaluate(st.g, o, vs)
	if nq.Algo == AlgoCoreExact {
		// The evaluated witness is this version's best known one — carry
		// it for the post-mutation warm start, exactly as Solve's
		// core-exact path does.
		st.psiFor(o).recordWitness(res.Vertices)
	}
	return res, nil
}
