// Anytime streaming: CoreExact run as a refinement ladder — memo hit,
// CoreApp approximation, adaptive Greed++ tightening, per-component flow
// search — that emits a monotone stream of certified answers while doing
// so. Every emitted Answer carries a witness whose exact density is the
// interval's lower end and a certified upper bound as its top;
// consecutive answers only ever tighten the interval, and the last one is
// the exact (or deadline/gap-degraded) result. A run without a receiver
// skips the rungs that only produce intermediate answers, so the optimal
// witness, and with it the density's Num/Den, may differ between a
// streamed and a unary run where several subgraphs attain the optimum
// (the root package's FuzzSolve corpus entry equal-density-witnesses is
// one such graph); the density value never does.
//
// The unified-framework view (Zhou et al.) is what makes the ladder
// sound: CoreApp, Greed++ and CoreExact are points on one
// accuracy/latency spectrum over the same density objective, so their
// certificates compose — a lower bound from any rung is a real
// subgraph's density, an upper bound from any rung caps the optimum, and
// the exact search inherits both.
package core

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/kcore"
	"repro/internal/psicore"
	"repro/internal/rational"
)

// Stream is CoreExact's optional receiver: with one, the driver runs the
// ladder rungs that only produce intermediate answers and pushes every
// certified tightening to Sink.
type Stream struct {
	// Sink receives every answer; see Emitter for its contract.
	Sink func(Answer)
	// Classical is g's classical core decomposition, which the
	// approximation rung reads for h-cliques with h ≥ 3; nil computes it.
	Classical *kcore.Decomposition
	// Decompose returns the decomposition to locate in when CoreExact is
	// handed none; the ladder calls it once the approximation rung has
	// answered. It may be restricted (Floor > 0). nil peels the whole
	// graph.
	Decompose func(context.Context) (*psicore.Decomposition, error)
}

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

// Emitter is the monotone interval cell CoreExact's component searches
// share: a (lower, witness) pair that only rises, a global upper bound
// that only falls, and an optional per-component upper array feeding it.
// A density improvement published by one search immediately raises the
// probe α and shrinks the cores of every other one. Every strict
// tightening is pushed to the sink synchronously under the emitter lock,
// so the emitted sequence is totally ordered and each event tightens at
// least one interval end — the stream-level monotonicity guarantee is
// enforced here, not trusted to callers.
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
	// uppers is a max tournament tree over the per-component upper
	// bounds: component i's slot is the leaf uppers[n+i] (n = len/2),
	// every inner node k holds max(uppers[2k], uppers[2k+1]), and
	// uppers[1] is the max of them all, so a slot update costs O(log n)
	// however many components share the emitter.
	uppers []float64
	done   bool
}

// NewEmitter returns an emitter over sink (nil sink = bookkeeping only,
// a unary run's cell) with an empty lower bound and an infinite upper
// bound.
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
// (d, w) if it helps (or hold w when no witness is held yet), adopt the
// per-component upper array, and clamp the global upper to what it
// implies — at most one event for the whole update.
func (e *Emitter) Install(d rational.R, w []int32, uppers []float64, stage Stage) {
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := false
	if d.Greater(e.lower) {
		e.lower = d
		e.witness = w
		changed = true
	} else if e.witness == nil {
		e.witness = w
	}
	n := len(uppers)
	e.uppers = make([]float64, 2*n)
	copy(e.uppers[n:], uppers)
	for k := n - 1; k >= 1; k-- {
		e.uppers[k] = max(e.uppers[2*k], e.uppers[2*k+1])
	}
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
	n := len(e.uppers) / 2
	if i < 0 || i >= n || v >= e.uppers[n+i] {
		return
	}
	k := n + i
	e.uppers[k] = v
	for k > 1 {
		k /= 2
		e.uppers[k] = max(e.uppers[2*k], e.uppers[2*k+1])
	}
	if u := e.recomputeLocked(); u < e.upper {
		e.upper = u
		e.emitLocked(stage)
	}
}

// recomputeLocked derives the global upper end from the component array:
// every component optimum sits at or below its slot, so the optimum is
// at most max(lower, max slots) — a degraded run's interval top.
func (e *Emitter) recomputeLocked() float64 {
	u := e.lower.Float()
	if len(e.uppers) > 0 && e.uppers[1] > u {
		u = e.uppers[1]
	}
	return u
}

// Bound returns the current certified lower end, the probe α of the
// searches sharing the emitter.
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

// Final emits the terminal answer for res and closes the emitter: the
// interval top is res.Bound.Upper on a degraded result and the density
// itself on an exact one, clamped against the emitted upper so the last
// event can never widen what an earlier one certified (float rounding of
// an exact density could otherwise tick above it).
func (e *Emitter) Final(res *Result) {
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
