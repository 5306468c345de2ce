// Exported component-search entrypoint: one connected component of a
// located (k,Ψ)-core, searched with the same shrinking-flow Dinkelbach
// search CoreExact runs, against a caller-held Emitter. dsd.Solver's
// SolveComponent runs it so a caller can drive one CoreExact query layer
// by layer: PlanCoreExact's location phase, then one SearchComponent per
// component, each seeded with the best density found so far.
package core

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/psicore"
	"repro/internal/rational"
)

// ComponentOutcome is one component search's contribution: the best
// (density, witness) found inside the component — zero/nil when nothing
// in it beat the bound floor — plus the search's share of the run stats.
type ComponentOutcome struct {
	// Density is the exact density of Witness; the zero rational (and a
	// nil Witness) when the component could not improve on the floor.
	Density rational.R
	Witness []int32
	// FlowSolves counts flow networks built and min-cuts computed.
	FlowSolves int
	// FlowTime attributes the search's wall time to flow solves (see
	// Stats.FlowTime).
	FlowTime time.Duration
}

// SearchComponent runs the per-component search of Algorithm 4 lines
// 5-20 (Dinkelbach probes at the shared bound in place of the paper's
// bisection) on comp, a connected component of the
// ⌈kLocate⌉-located core of g — exactly the searches PlanCoreExact's
// components receive inside CoreExact. floor is the search's live lower
// bound: its lower end is the probe α, every improvement the search finds
// is published to it, and a caller may raise it (Improve with a nil
// witness) as other components report theirs, which raises the probe α
// and shrinks the cores of the in-flight search. Its lower end must only
// ever be the density of a real subgraph of g, which keeps every use
// conservative. The outcome's witness is the best subgraph found inside
// this component.
//
// dec must be the decomposition the plan was located in (it provides the
// core numbers the search shrinks along), and opts must match the plan's
// options; both are read-only here, so one plan may serve any number of
// concurrent SearchComponent calls.
func SearchComponent(ctx context.Context, g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition,
	opts Options, floor *Emitter, comp []int32, kLocate int64) (*ComponentOutcome, error) {
	// Slot -1: the floor keeps no per-component upper bounds.
	cs, err := searchComponent(ctx, g, o, dec, opts, floor, -1, comp, kLocate, int64(o.Size()))
	if err != nil {
		return nil, err
	}
	return &ComponentOutcome{
		Density:    cs.density,
		Witness:    cs.witness,
		FlowSolves: cs.iterations,
		FlowTime:   cs.flowNS,
	}, nil
}
