// Exported component-search entrypoint: one connected component of a
// located (k,Ψ)-core, searched with the same shrinking-flow Dinkelbach
// search the in-process engines run, but against an injectable
// BoundSource. This is the execution unit of the distributed sharding
// layer (internal/shard): a coordinator runs PlanCoreExact locally,
// ships each plan component to a shard worker, and the worker answers
// through SearchComponent with a FloorCell the coordinator's bound
// rebroadcasts keep raising.
package core

import (
	"context"
	"sync"
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
	// FlowSolves counts flow networks built and min-cuts computed;
	// FlowNodes their node counts in order.
	FlowSolves int
	FlowNodes  []int
	// FlowTime attributes the search's wall time to flow solves (see
	// Stats.FlowTime).
	FlowTime time.Duration
	// Upper is the search's final certified upper bound on the
	// component's optimum density (core-number or empty-cut probe
	// certificate, whichever ended tightest). A
	// deadline-degrading coordinator takes the max over surviving Uppers
	// as its interval top.
	Upper float64
	// GapStop reports the search stopped at the Options.Gap accuracy
	// budget rather than closing the interval completely.
	GapStop bool
}

// SearchComponent runs the per-component search of Algorithm 4 lines
// 5-20 (Dinkelbach probes at the shared bound in place of the paper's
// bisection) on comp, a connected component of the
// ⌈kLocate⌉-located core of g — exactly the searches PlanCoreExact's
// components receive in-process, with the shared bound abstracted to
// bounds. The outcome's witness is the best subgraph found inside this
// component; bounds.Improve has already seen it (and every intermediate
// improvement), so in-process callers may rely on the cell alone while
// remote callers return the outcome over the wire.
//
// dec must be the decomposition the plan was located in (it provides the
// core numbers the search shrinks along), and opts must match the plan's
// options; both are read-only here, so one plan may serve any number of
// concurrent SearchComponent calls.
//
// When onUpper is non-nil it receives every strict tightening of the
// search's certified upper bound (initially the component's max core
// number), in monotone decreasing order, on the search's own goroutine.
// Together with the Improve calls the search makes on bounds, this turns
// the whole search into an emittable stream of certified interval
// refinements — the anytime planner's substrate. A search that builds a
// network ends on an empty min cut at the bound it last probed, and
// onUpper then receives that bound.
func SearchComponent(ctx context.Context, g *graph.Graph, o motif.Oracle, dec *psicore.Decomposition,
	opts Options, bounds BoundSource, comp []int32, kLocate int64, onUpper func(float64)) (*ComponentOutcome, error) {
	tr := &trackingBounds{inner: bounds}
	slots := newUpperSlots([]float64{float64(maxCoreOf(comp, dec))})
	slots[0].notify = onUpper
	cs, err := searchComponent(ctx, g, o, dec, opts, tr, comp, kLocate, int64(o.Size()), &slots[0])
	if err != nil {
		return nil, err
	}
	d, w := tr.best()
	return &ComponentOutcome{
		Density:    d,
		Witness:    w,
		FlowSolves: cs.iterations,
		FlowNodes:  cs.flowNodes,
		FlowTime:   cs.flowNS,
		Upper:      slots[0].get(),
		GapStop:    cs.gapStop,
	}, nil
}

// trackingBounds decorates a BoundSource, remembering the best witness
// the wrapped search itself published — the inner source may be fed by
// sibling searches too, so its state alone cannot say what THIS
// component contributed.
type trackingBounds struct {
	inner BoundSource

	mu    sync.Mutex
	bestD rational.R
	bestW []int32
}

func (t *trackingBounds) Bound() rational.R { return t.inner.Bound() }

func (t *trackingBounds) Improve(d rational.R, w []int32) bool {
	t.mu.Lock()
	if d.Greater(t.bestD) {
		t.bestD = d
		t.bestW = w
	}
	t.mu.Unlock()
	return t.inner.Improve(d, w)
}

func (t *trackingBounds) best() (rational.R, []int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bestD, t.bestW
}

// FloorCell is the shard-side BoundSource: a monotone density floor with
// no witness attached. A worker seeds it from the coordinator's global
// lower bound at dispatch time; the coordinator keeps raising it through
// Raise as sibling shards report improvements, which raises the probe α
// and shrinks the cores of the in-flight search exactly as the in-process
// cell would. Witnesses stay
// wherever they were found — the search's own best travels back in its
// ComponentOutcome, and the floor only ever carries densities of real
// subgraphs, so every use remains conservative.
type FloorCell struct {
	mu    sync.Mutex
	floor rational.R
}

// NewFloorCell returns a floor seeded at d.
func NewFloorCell(d rational.R) *FloorCell {
	return &FloorCell{floor: d}
}

// Bound returns the current floor.
func (c *FloorCell) Bound() rational.R {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor
}

// Improve raises the floor to d when it is an improvement; the witness is
// the caller's to keep.
func (c *FloorCell) Improve(d rational.R, _ []int32) bool { return c.Raise(d) }

// Raise lifts the floor to d iff d strictly beats it, reporting whether
// it did.
func (c *FloorCell) Raise(d rational.R) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !d.Greater(c.floor) {
		return false
	}
	c.floor = d
	return true
}
