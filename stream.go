// Anytime streaming: Solve as a refinement session instead of a single
// terminal answer. StreamFunc runs core-exact with a receiver, so
// the driver climbs its ladder — memo hit, CoreApp, adaptive Greed++,
// per-component flow search (see internal/core's Stream) — over the same
// memoized state Solve uses, emitting every certified interval
// tightening on the way to a final answer whose density equals Solve's
// in value for the same query. Where several subgraphs attain the
// optimum the two may return different optimal witnesses, so Num/Den
// can differ (testdata/fuzz/FuzzSolve/equal-density-witnesses: 60/10
// from Solve, 42/7 from the stream).
package dsd

import (
	"context"

	"repro/internal/core"
)

// Answer is one certified point of a refinement stream: a witness whose
// exact density is the interval's lower end and a certified upper bound
// as its top. See internal/core's Emitter for the full contract.
type Answer = core.Answer

// Stage labels which ladder rung produced an Answer.
type Stage = core.Stage

// The ladder's stages, in refinement order.
const (
	StageMemo      = core.StageMemo
	StageApprox    = core.StageApprox
	StagePlan      = core.StagePlan
	StageIterative = core.StageIterative
	StageSearch    = core.StageSearch
	StageFinal     = core.StageFinal
)

// StreamFunc answers q like Solve but pushes every certified interval
// tightening to fn on the way: fn sees a monotone sequence of Answers
// (lower ends only rise, upper ends only fall, each event strictly
// tightens one of them), ending with the Final answer for the returned
// Result. fn is invoked synchronously from solver goroutines under the
// stream's ordering lock, so it must be fast and non-blocking: a caller
// that feeds a slow consumer relays the answers through a cap-1 channel
// that displaces an undelivered older answer, as dsdd's stream endpoint
// does; skipping intermediates of a monotone sequence leaves it monotone.
//
// Only Algo=core-exact queries stream (the ladder refines toward that
// exact answer); everything else returns an error. The final Result's
// density equals Solve's in value (Cmp) for the same query, and so does
// an exact answer's optimality, because the ladder only adds certified
// lower bounds to the search's shared cell, which can only prune, never
// change an optimum. Those extra bounds can steer the search to another
// optimal witness, so the witness, and with it Density.Num/Den, may
// differ from Solve's (see the package comment). Cancelling ctx abandons
// the refinement, and StreamFunc returns ctx's error.
func (s *Solver) StreamFunc(ctx context.Context, q Query, fn func(Answer)) (*Result, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	vs, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	return s.solveOn(ctx, nq, o, vs, receiver(fn))
}

// StreamFunc is Solver.StreamFunc on the snapshot's version. q.Version
// must be zero or equal to the pinned version, as for Snapshot.Solve.
func (sn *Snapshot) StreamFunc(ctx context.Context, q Query, fn func(Answer)) (*Result, error) {
	nq, o, err := sn.normalize(q)
	if err != nil {
		return nil, err
	}
	return sn.s.solveOn(ctx, nq, o, sn.vs, receiver(fn))
}

// receiver is fn, or a receiver that drops every answer when fn is nil:
// StreamFunc always streams, and only a unary Solve passes solveOn nil.
func receiver(fn func(Answer)) func(Answer) {
	if fn == nil {
		return func(Answer) {}
	}
	return fn
}
