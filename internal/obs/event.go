package obs

// QueryEvent is the wide event: one canonical structured record per
// query the service admitted (or refused), carrying everything needed
// to answer "what did this query cost and why" — identity (trace id,
// canonical query key, graph version), outcome (ok / cache_hit / shed /
// timeout / error, plus the degraded and streamed flags), wall time and
// queue wait, heap allocation, solver work counters, the per-phase cost
// table, and the per-shard breakdown. It is the record the query log
// ring retains, GET /v1/querylog serves, and the slow-query log
// serializes.
type QueryEvent struct {
	// TimeUnixNs is when the event was emitted (query completion, or
	// refusal time for sheds that never reached the solver).
	TimeUnixNs int64 `json:"time_unix_ns"`
	// TraceID identifies the query's span tree (empty when tracing is
	// off or the query was refused before a tracer existed).
	TraceID string `json:"trace_id,omitempty"`
	Graph   string `json:"graph"`
	Algo    string `json:"algo"`
	// QueryKey is the canonical dsd.Query cache key — two events with
	// the same key and version asked for the same computation.
	QueryKey string `json:"query_key,omitempty"`
	// Version is the graph version the query was pinned to (0 = head).
	Version uint64 `json:"version,omitempty"`

	// Outcome is the admission/solve outcome, the same label
	// dsd_queries_total uses: ok | cache_hit | shed | timeout | error.
	Outcome string `json:"outcome"`
	// Cached reports the result came from the single-flight cache (the
	// solve cost recorded below was paid by an earlier query).
	Cached bool `json:"cached,omitempty"`
	// Degraded reports a certified-but-not-exact answer (deadline or
	// gap budget hit).
	Degraded bool `json:"degraded,omitempty"`
	// Shed reports the query was refused at admission (503): no solver
	// work was done and solver fields below are zero.
	Shed bool `json:"shed,omitempty"`
	// Slow reports the computation crossed the engine's slow-query
	// threshold (never set on cache hits — the hit didn't recompute).
	Slow bool `json:"slow,omitempty"`
	// Stream reports the query ran via the anytime streaming endpoint;
	// StreamEvents counts the SSE events delivered, terminal included.
	Stream       bool   `json:"stream,omitempty"`
	StreamEvents int    `json:"stream_events,omitempty"`
	Error        string `json:"error,omitempty"`

	// DurNs is the request's wall time as the engine saw it (for cache
	// hits: the hit latency, not the original solve). QueueWaitNs is
	// the admission-queue wait before a worker picked the query up.
	DurNs       int64 `json:"dur_ns"`
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`

	// AllocBytes/Allocs are the heap allocation attributed to the solve:
	// the root span's counter delta, span-granular, so a tiny solve may
	// read zero. Zero for sheds; a cache hit repeats the figures of the
	// computation it hit.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`

	// Solver work counters, copied from the result's QueryStats.
	FlowSolves          int  `json:"flow_solves,omitempty"`
	PreSolveIters       int  `json:"pre_solve_iters,omitempty"`
	PreSolveSkips       int  `json:"pre_solve_skips,omitempty"`
	ReusedDecomposition bool `json:"reused_decomposition,omitempty"`
	ReusedDegrees       bool `json:"reused_degrees,omitempty"`
	BoundedCores        bool `json:"bounded_cores,omitempty"`
	ShardComponents     int  `json:"shard_components,omitempty"`
	ShardRemote         int  `json:"shard_remote,omitempty"`
	ShardFallbacks      int  `json:"shard_fallbacks,omitempty"`
	ShardHedges         int  `json:"shard_hedges,omitempty"`

	// Density is the answer's density as a float (diagnostic only; the
	// exact rational lives in the result).
	Density float64 `json:"density,omitempty"`

	// Phases is the per-phase cost table (Trace.PhaseCosts) and Shards
	// the per-worker remote breakdown (Trace.ShardCosts).
	Phases []PhaseCost `json:"phases,omitempty"`
	Shards []ShardCost `json:"shards,omitempty"`
}

// Retain reports whether tail sampling must keep the event regardless
// of the OK sampling rate: anything anomalous — slow, degraded, shed,
// errored, timed out — is always retained; only routine successes are
// sampled.
func (ev *QueryEvent) Retain() bool {
	if ev.Slow || ev.Degraded || ev.Shed {
		return true
	}
	switch ev.Outcome {
	case "ok", "cache_hit":
		return false
	}
	return true
}
