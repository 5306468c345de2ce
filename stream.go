// Anytime streaming: Solve as a refinement session instead of a single
// terminal answer. Stream/StreamFunc run the internal/plan ladder — memo
// hit, CoreApp, adaptive Greed++, per-component flow search — over the
// same memoized state Solve uses, emitting every certified interval
// tightening on the way to a final answer whose density equals Solve's
// in value for the same query. Where several subgraphs attain the
// optimum the two may return different optimal witnesses, so Num/Den
// can differ (testdata/fuzz/FuzzSolve/equal-density-witnesses: 60/10
// from Solve, 42/7 from the stream).
package dsd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/psicore"
)

// Answer is one certified point of a refinement stream: a witness whose
// exact density is the interval's lower end and a certified upper bound
// as its top. See internal/plan for the full contract.
type Answer = plan.Answer

// Stage labels which planner rung produced an Answer.
type Stage = plan.Stage

// The planner ladder's stages, in refinement order.
const (
	StageMemo      = plan.StageMemo
	StageApprox    = plan.StageApprox
	StagePlan      = plan.StagePlan
	StageIterative = plan.StageIterative
	StageSearch    = plan.StageSearch
	StageFinal     = plan.StageFinal
)

// StreamFunc answers q like Solve but pushes every certified interval
// tightening to fn on the way: fn sees a monotone sequence of Answers
// (lower ends only rise, upper ends only fall, each event strictly
// tightens one of them), ending with the Final answer for the returned
// Result. fn is invoked synchronously from solver goroutines under the
// stream's ordering lock, so it must be fast and non-blocking — channel
// fan-out belongs in Stream, which wraps this with a conflating relay.
//
// Only Algo=core-exact queries stream (the ladder refines toward that
// exact answer); everything else returns an error. The final Result's
// density equals Solve's in value (Cmp) for the same query, and so does
// an exact answer's optimality, because the ladder only adds certified
// lower bounds to the search's shared cell, which can only prune, never
// change an optimum. Those extra bounds can steer the search to another
// optimal witness, so the witness, and with it Density.Num/Den, may
// differ from Solve's (see the package comment).
func (s *Solver) StreamFunc(ctx context.Context, q Query, fn func(Answer)) (*Result, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return nil, err
	}
	vs, err := s.state(nq.Version)
	if err != nil {
		return nil, err
	}
	return streamOn(ctx, nq, o, vs, fn)
}

// StreamFunc is Solver.StreamFunc on the snapshot's version. q.Version
// must be zero or equal to the pinned version, as for Snapshot.Solve.
func (sn *Snapshot) StreamFunc(ctx context.Context, q Query, fn func(Answer)) (*Result, error) {
	nq, o, err := sn.normalize(q)
	if err != nil {
		return nil, err
	}
	return streamOn(ctx, nq, o, sn.vs, fn)
}

// streamOn streams a normalized query on one version's state (shared by
// Solver.StreamFunc and Snapshot.StreamFunc).
func streamOn(ctx context.Context, nq Query, o motif.Oracle, vs *verState, fn func(Answer)) (*Result, error) {
	if nq.Algo != AlgoCoreExact {
		return nil, fmt.Errorf("dsd: streaming supports Algo=core-exact only (got %q)", nq.Algo)
	}
	tr, parent := obs.FromContext(ctx)
	sp := tr.Start(obs.SpanSolve, parent)
	if sp != nil {
		sp.SetAttr("algo", string(nq.Algo))
		sp.SetAttr("psi", o.Name())
		sp.SetInt("version", int64(vs.ver))
		sp.SetAttr("stream", "true")
		ctx = obs.WithSpan(ctx, tr, sp)
	}
	start := time.Now()
	st := vs.psiFor(o)
	opts := nq.coreOptions()
	req := coreExactRequest(opts, true)
	// Peek the memoized decomposition WITHOUT forcing a peel: on a cold
	// graph the planner wants to put a certified CoreApp interval on the
	// stream before paying for the decomposition, so the decomposition
	// happens inside the ladder, from coreExactDec as Solve's does. The
	// ladder's CoreApp rung and a restriction share one classical
	// decomposition.
	dec, bounded := st.peekDec(req)
	var cold plan.Cold
	decReused, decTime := dec != nil, time.Duration(0)
	if dec == nil {
		req.classical = vs.classical(o)
		cold.Classical = req.classical
		cold.Decompose = func(ctx context.Context) (*psicore.Decomposition, error) {
			decStart := time.Now()
			d, reused, _, err := st.tracedCoreExactDec(ctx, vs, req)
			decReused, decTime = reused, time.Since(decStart)
			return d, err
		}
	}
	opts.DecUpperBound = bounded
	opts.SeedWitness = st.seedWitness()
	res, err := plan.Run(ctx, vs.g, o, opts, dec, cold, fn)
	sp.End()
	if err != nil {
		return nil, err
	}
	stampDecompose(res, decReused, decTime)
	st.recordWitness(res.Vertices)
	res.Stats.BoundedCores = bounded
	res.Stats.Total = time.Since(start)
	if tr != nil {
		res.Stats.Trace = tr.Snapshot()
	}
	return res, nil
}

// Stream answers q as an anytime stream: a channel of certified Answers
// whose intervals only ever tighten, ending with one marked Final (or,
// on failure after the stream starts, one carrying Err) before the
// channel closes. Argument errors — a non-core-exact algo, an unknown
// version, an invalid query — are returned synchronously instead.
//
// The channel conflates: a slow receiver observes the latest tightening
// rather than every one, but never loses the terminal event, and
// monotonicity survives conflation (skipping intermediates of a monotone
// sequence leaves it monotone). Cancel ctx to abandon the refinement;
// the terminal event then carries ctx's error.
func (s *Solver) Stream(ctx context.Context, q Query) (<-chan Answer, error) {
	nq, _, err := q.normalize()
	if err != nil {
		return nil, err
	}
	if nq.Algo != AlgoCoreExact {
		return nil, fmt.Errorf("dsd: streaming supports Algo=core-exact only (got %q)", nq.Algo)
	}
	if _, err := s.state(nq.Version); err != nil {
		return nil, err
	}
	ch := make(chan Answer, 1)
	go func() {
		defer close(ch)
		start := time.Now()
		if _, err := s.StreamFunc(ctx, nq, func(a Answer) { plan.Conflate(ch, a) }); err != nil {
			plan.Conflate(ch, Answer{Err: err, Elapsed: time.Since(start)})
		}
	}()
	return ch, nil
}

// peekDec returns the memoized decomposition req admits, in
// coreExactDec's order (bounded=true for the upper-bound peel carried
// across Apply), without computing anything.
func (st *psiState) peekDec(req decRequest) (dec *psicore.Decomposition, bounded bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.memoDecLocked(req)
}
