// The wide-event query log: every request through Engine.solve emits
// one obs.QueryEvent — the canonical cost record GET /v1/querylog
// serves and the slow-query log serializes — so one artifact answers
// "what did this query cost and why" across outcomes, phases and
// allocation.
package service

import (
	"log/slog"
	"time"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// fillEventFromResult copies a computed (or cache-served) result's cost
// and work counters into the wide event: solver counters, allocation,
// density, and the per-phase cost table derived from the
// trace. On cache hits the stats describe the original computation, not
// this request — that is what "what did this answer cost" means there.
func fillEventFromResult(ev *obs.QueryEvent, res *core.Result) {
	st := &res.Stats
	ev.Degraded = res.Degraded
	ev.Density = res.Density.Float()
	ev.FlowSolves = st.Iterations
	ev.PreSolveIters = st.PreSolveIters
	ev.PreSolveSkips = st.PreSolveSkips
	ev.ReusedDecomposition = st.ReusedDecomposition
	ev.ReusedDegrees = st.ReusedDegrees
	ev.BoundedCores = st.BoundedCores
	ev.AllocBytes = st.AllocBytes
	ev.Allocs = st.Allocs
	if st.Trace != nil {
		ev.TraceID = st.Trace.TraceID
		ev.Phases = st.Trace.PhaseCosts()
	}
}

// recordEvent retains the wide event in the query-log ring. Events must
// not be mutated after recording.
func (e *Engine) recordEvent(ev *obs.QueryEvent) {
	e.qlog.Add(ev)
}

// observeComputed is the slow-query log: a computed result whose total
// time reaches the threshold is logged at Warn. The record is the wide
// query event serialized to slog attrs — the same per-phase breakdown
// and allocation accounting /v1/querylog retains, so the log line and
// the query-log entry for one slow query agree field for field.
func (e *Engine) observeComputed(graphName string, nq dsd.Query, r *core.Result, queueWait time.Duration) {
	if e.slowQuery <= 0 || r.Stats.Total < e.slowQuery {
		return
	}
	ev := &obs.QueryEvent{
		TimeUnixNs:  time.Now().UnixNano(),
		Graph:       graphName,
		Algo:        string(nq.Algo),
		QueryKey:    nq.Key(),
		Version:     uint64(nq.Version),
		Outcome:     "ok",
		Slow:        true,
		DurNs:       int64(r.Stats.Total),
		QueueWaitNs: int64(queueWait),
	}
	fillEventFromResult(ev, r)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	attrs := []any{
		slog.String("graph", ev.Graph),
		slog.String("algo", ev.Algo),
		slog.Float64("total_ms", ms(r.Stats.Total)),
		slog.Float64("queue_wait_ms", ms(queueWait)),
		slog.Float64("decompose_ms", ms(r.Stats.Decompose)),
		slog.Float64("presolve_ms", ms(r.Stats.PreSolveTime)),
		slog.Float64("flow_ms", ms(r.Stats.FlowTime)),
		slog.Int("flow_solves", ev.FlowSolves),
		slog.Int("presolve_iters", ev.PreSolveIters),
		slog.Int("presolve_skips", ev.PreSolveSkips),
		slog.Int64("alloc_bytes", ev.AllocBytes),
		slog.Int64("allocs", ev.Allocs),
	}
	if ev.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", ev.TraceID))
	}
	e.log.Warn("slow query", attrs...)
}
