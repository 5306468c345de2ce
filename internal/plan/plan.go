// Package plan is the anytime query planner: it runs one CoreExact-class
// query as a refinement ladder — memo hit, CoreApp approximation,
// adaptive Greed++ tightening, per-component flow search — and emits a
// monotone stream of certified answers while doing so. Every emitted
// Answer carries a witness whose exact density is the interval's lower
// end and a certified upper bound as its top; consecutive answers only
// ever tighten the interval, and the last one is the exact (or
// deadline/gap-degraded) result, equal in value to what the plain solver
// returns for the same query. The optimal witness, and with it the
// density's Num/Den, may differ where several subgraphs attain the
// optimum (the root package's FuzzSolve corpus entry
// equal-density-witnesses is one such graph).
//
// The unified-framework view (Zhou et al.) is what makes the ladder
// sound: CoreApp, Greed++ and CoreExact are points on one
// accuracy/latency spectrum over the same density objective, so their
// certificates compose — a lower bound from any rung is a real
// subgraph's density, an upper bound from any rung caps the optimum, and
// the exact search inherits both.
package plan

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rational"
)

// Stage labels which ladder rung produced an Answer.
type Stage string

const (
	// StageMemo is a certified answer replayed from solver memo state
	// (the recorded witness of an earlier run on the same graph+motif).
	StageMemo Stage = "memo"
	// StageApprox is the CoreApp rung: a |VΨ|-approximation whose output
	// density certifies both interval ends at once.
	StageApprox Stage = "approx"
	// StagePlan is the location rung: Pruning1/2's (lower, witness) pair
	// plus the per-component core-number upper bounds.
	StagePlan Stage = "plan"
	// StageIterative is the adaptive Greed++ rung on the densest
	// component.
	StageIterative Stage = "iterative"
	// StageSearch is the per-component shrinking-flow Dinkelbach search.
	StageSearch Stage = "search"
	// StageShard is a coordinator merge of a shard worker's bound report.
	StageShard Stage = "shard"
	// StageFinal marks the terminal answer of a successful stream.
	StageFinal Stage = "final"
)

// Answer is one certified point of a refinement stream.
type Answer struct {
	// Density is the exact density of Witness — the certified lower end
	// of the interval. The optimum is ≥ Density at every event.
	Density rational.R
	// Witness is the subgraph achieving Density, in original vertex ids.
	// Receivers must not mutate it (events may share witness storage).
	Witness []int32
	// Bound is the certified upper end of the interval: the optimum is
	// ≤ Bound. It is +Inf until the first upper certificate appears and
	// collapses to Density (up to float rounding) on an exact final.
	Bound float64
	// Stage is the ladder rung that produced this tightening.
	Stage Stage
	// Elapsed is the time since the stream started.
	Elapsed time.Duration
	// Final marks the terminal answer; no further events follow it.
	Final bool
	// Degraded reports a final answer that stopped at a deadline or gap
	// budget with the interval still open (mirrors Result.Degraded).
	Degraded bool
	// Err is non-nil only on the terminal event of a failed stream
	// (cancellation, unknown graph mid-mutation, …); all other fields
	// except Elapsed are zero on such an event.
	Err error
}

// Emitter is the monotone interval cell behind a refinement stream: a
// (lower, witness) pair that only rises, a global upper bound that only
// falls, and an optional per-component upper array feeding it. Every
// strict tightening is pushed to the sink synchronously under the
// emitter lock, so the emitted sequence is totally ordered and each
// event tightens at least one interval end — the stream-level
// monotonicity guarantee is enforced here, not trusted to callers.
//
// The sink must be fast and non-blocking (solver goroutines publish
// through it); channel fan-out and network writes belong behind a
// conflating relay, not in the sink itself.
type Emitter struct {
	mu      sync.Mutex
	start   time.Time
	sink    func(Answer)
	lower   rational.R
	witness []int32
	upper   float64
	uppers  []float64
	done    bool
}

// NewEmitter returns an emitter over sink (nil sink = bookkeeping only)
// with an empty lower bound and an infinite upper bound.
func NewEmitter(sink func(Answer)) *Emitter {
	return &Emitter{start: time.Now(), sink: sink, upper: math.Inf(1)}
}

// Improve raises the lower end to (d, w) when d strictly beats it,
// emitting the tightened interval; it reports whether it did. Callers
// must pass witnesses they will not mutate.
func (e *Emitter) Improve(d rational.R, w []int32, stage Stage) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !d.Greater(e.lower) {
		return false
	}
	e.lower = d
	e.witness = w
	e.emitLocked(stage)
	return true
}

// Tighten lowers the global upper end directly to u when it strictly
// helps, emitting the tightened interval — the pre-plan rungs' path,
// before any per-component structure exists.
func (e *Emitter) Tighten(u float64, stage Stage) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if u >= e.upper {
		return
	}
	e.upper = u
	e.emitLocked(stage)
}

// Install atomically adopts a location plan: raise the lower end to
// (d, w) if it helps, adopt the per-component upper array, and clamp the
// global upper to what it implies — at most one event for the whole
// update.
func (e *Emitter) Install(d rational.R, w []int32, uppers []float64, stage Stage) {
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := false
	if d.Greater(e.lower) {
		e.lower = d
		e.witness = w
		changed = true
	}
	e.uppers = append([]float64(nil), uppers...)
	if u := e.recomputeLocked(); u < e.upper {
		e.upper = u
		changed = true
	}
	if changed {
		e.emitLocked(stage)
	}
}

// TightenComp lowers component i's upper bound to v, emitting when the
// global upper end strictly falls as a result. Safe from any goroutine.
func (e *Emitter) TightenComp(i int, v float64, stage Stage) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.uppers) || v >= e.uppers[i] {
		return
	}
	e.uppers[i] = v
	if u := e.recomputeLocked(); u < e.upper {
		e.upper = u
		e.emitLocked(stage)
	}
}

// recomputeLocked derives the global upper end from the component array:
// every component optimum sits at or below its slot, so the optimum is
// at most max(lower, max slots) — the same assembly a degraded
// CoreExact run uses for its interval top.
func (e *Emitter) recomputeLocked() float64 {
	u := e.lower.Float()
	for _, v := range e.uppers {
		if v > u {
			u = v
		}
	}
	return u
}

// Bound returns the current certified lower end — the BoundSource read
// side for searches sharing the emitter as their cell.
func (e *Emitter) Bound() rational.R {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lower
}

// Snapshot returns the current certified interval and witness.
func (e *Emitter) Snapshot() (lower rational.R, witness []int32, upper float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lower, e.witness, e.upper
}

// Upper returns the current certified upper end.
func (e *Emitter) Upper() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.upper
}

// Final emits the terminal answer for res and closes the emitter: the
// interval top is res.Bound.Upper on a degraded result and the density
// itself on an exact one, clamped against the emitted upper so the last
// event can never widen what an earlier one certified (float rounding of
// an exact density could otherwise tick above it).
func (e *Emitter) Final(res *core.Result) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	bound := res.Density.Float()
	if res.Degraded {
		bound = res.Bound.Upper
	}
	if bound > e.upper {
		bound = e.upper
	}
	e.lower = res.Density
	e.witness = res.Vertices
	e.upper = bound
	if e.sink != nil {
		e.sink(Answer{
			Density:  res.Density,
			Witness:  res.Vertices,
			Bound:    bound,
			Stage:    StageFinal,
			Elapsed:  time.Since(e.start),
			Final:    true,
			Degraded: res.Degraded,
		})
	}
	e.done = true
}

// emitLocked pushes the current interval to the sink; the emitter lock
// is held, so events are totally ordered and each strictly tightens.
func (e *Emitter) emitLocked(stage Stage) {
	if e.done || e.sink == nil {
		return
	}
	e.sink(Answer{
		Density: e.lower,
		Witness: e.witness,
		Bound:   e.upper,
		Stage:   stage,
		Elapsed: time.Since(e.start),
	})
}

// Conflate delivers a to a cap-1 channel, displacing an undelivered
// older event rather than blocking the producer — the standard relay
// step between an Emitter's synchronous sink and a slow consumer. With
// a single producer, the last event pushed is always the last one
// received, and conflation preserves monotonicity (skipping
// intermediates of a monotone sequence leaves it monotone).
func Conflate(ch chan Answer, a Answer) {
	for {
		select {
		case ch <- a:
			return
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}

// stageCell adapts an Emitter to core.BoundSource with a fixed stage
// label for the Improve side.
type stageCell struct {
	em    *Emitter
	stage Stage
}

func (c stageCell) Bound() rational.R { return c.em.Bound() }

func (c stageCell) Improve(d rational.R, w []int32) bool { return c.em.Improve(d, w, c.stage) }
