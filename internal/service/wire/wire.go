// Package wire defines the JSON encoding shared by the dsdd HTTP API,
// its Go client, and the dsd CLI's -json output. Keeping the encoding in
// one place guarantees that a result printed by the CLI is byte-for-byte
// the encoding the service returns for the same query.
//
// A query request (QueryV2Request) carries a dsd.Query serialized field
// for field (Query) and returns the run's QueryStats alongside the
// result, so every problem variant and knob the library supports is
// reachable over the wire.
package wire

import (
	"math"
	"time"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Result is the JSON form of a densest-subgraph answer. The exact density
// is carried as the µ/n rational (DensityNum/DensityDen) alongside its
// float64 value, so clients that care about Lemma-12-precision comparisons
// never have to re-derive it from the float.
type Result struct {
	Vertices   []int32 `json:"vertices"`
	Size       int     `json:"size"`
	Mu         int64   `json:"mu"`
	DensityNum int64   `json:"density_num"`
	DensityDen int64   `json:"density_den"`
	Density    float64 `json:"density"`
	// Iterations counts flow networks built and solved; PreSolveIters and
	// PreSolveSkips are Exact's Greed++ counters (0 on core-exact runs,
	// see dsd.QueryStats).
	Iterations    int     `json:"iterations,omitempty"`
	PreSolveIters int     `json:"pre_solve_iters,omitempty"`
	PreSolveSkips int     `json:"pre_solve_skips,omitempty"`
	TotalMs       float64 `json:"total_ms"`
	// Degraded marks a best-effort answer returned under a deadline or
	// accuracy budget: Vertices/Density describe the best certified
	// subgraph found, and BoundLowerNum/Den (its exact density) together
	// with BoundUpper bracket the true optimum. All four are absent on
	// exact answers.
	Degraded      bool    `json:"degraded,omitempty"`
	BoundLowerNum int64   `json:"bound_lower_num,omitempty"`
	BoundLowerDen int64   `json:"bound_lower_den,omitempty"`
	BoundUpper    float64 `json:"bound_upper,omitempty"`
}

// FromResult converts a core result into its wire form.
func FromResult(res *core.Result) *Result {
	if res == nil {
		return nil
	}
	w := &Result{
		Vertices:      res.Vertices,
		Size:          len(res.Vertices),
		Mu:            res.Mu,
		DensityNum:    res.Density.Num,
		DensityDen:    res.Density.Den,
		Density:       res.Density.Float(),
		Iterations:    res.Stats.Iterations,
		PreSolveIters: res.Stats.PreSolveIters,
		PreSolveSkips: res.Stats.PreSolveSkips,
		TotalMs:       float64(res.Stats.Total) / float64(time.Millisecond),
	}
	if res.Degraded {
		w.Degraded = true
		w.BoundLowerNum = res.Bound.Lower.Num
		w.BoundLowerDen = res.Bound.Lower.Den
		w.BoundUpper = res.Bound.Upper
	}
	return w
}

// StreamEvent is one Server-Sent Event of an anytime stream (POST
// /v1/stream): a certified refinement interval. Density (carried exactly
// as DensityNum/DensityDen alongside its float) is the witness's density
// — the interval's certified lower end; Upper is the certified top, nil
// while no upper certificate exists yet (JSON cannot encode +Inf).
// Within one stream, lower ends only rise and upper ends only fall; the
// event named "final" carries Final=true and is the last one.
type StreamEvent struct {
	Stage      string   `json:"stage"`
	DensityNum int64    `json:"density_num"`
	DensityDen int64    `json:"density_den"`
	Density    float64  `json:"density"`
	Upper      *float64 `json:"upper,omitempty"`
	Witness    []int32  `json:"witness,omitempty"`
	Size       int      `json:"size"`
	ElapsedMs  float64  `json:"elapsed_ms"`
	Final      bool     `json:"final,omitempty"`
	// Degraded mirrors Result.Degraded on a final event: the stream
	// stopped at a deadline or gap budget with the interval still open.
	Degraded bool `json:"degraded,omitempty"`
	// Cached marks a final served from the result cache (or a
	// single-flight join): no computation ran for this stream.
	Cached bool `json:"cached,omitempty"`
}

// FromAnswer converts a streamed answer into its wire event.
func FromAnswer(a dsd.Answer, cached bool) StreamEvent {
	ev := StreamEvent{
		Stage:      string(a.Stage),
		DensityNum: a.Density.Num,
		DensityDen: a.Density.Den,
		Density:    a.Density.Float(),
		Witness:    a.Witness,
		Size:       len(a.Witness),
		ElapsedMs:  float64(a.Elapsed) / float64(time.Millisecond),
		Final:      a.Final,
		Degraded:   a.Degraded,
		Cached:     cached,
	}
	if !math.IsInf(a.Bound, 1) {
		u := a.Bound
		ev.Upper = &u
	}
	return ev
}

// Query is the wire form of dsd.Query, serialized verbatim: the motif
// (Pattern by canonical name, or H for an h-clique; both empty = edge),
// the algorithm, the execution knobs, and the problem-variant
// parameters. Fields at their zero value are omitted.
type Query struct {
	Pattern   string  `json:"pattern,omitempty"`
	H         int     `json:"h,omitempty"`
	Algo      string  `json:"algo,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	Iterative int     `json:"iterative,omitempty"`
	Anchors   []int32 `json:"anchors,omitempty"`
	AtLeast   int     `json:"at_least,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	// Version pins the query to one graph version of a mutable graph
	// (0 = current head; see dsd.Solver.Mutate). The service resolves 0 to
	// the head version at admission, so the echoed canonical query always
	// carries the concrete version it answered on.
	Version int64 `json:"version,omitempty"`
	// DeadlineMs / Gap are the core-exact degradation budgets (see
	// dsd.Query.Deadline and Query.Gap): a wall-clock budget after which
	// the best certified answer is returned with Degraded bounds, and a
	// relative accuracy at which component searches may stop early.
	DeadlineMs int64   `json:"deadline_ms,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
}

// ToQuery decodes the wire query into a dsd.Query, resolving the pattern
// name and algorithm eagerly so an unknown name fails here — at the
// decoding edge, with ParseAlgo's list of valid names — instead of deep
// inside a run.
func (w Query) ToQuery() (dsd.Query, error) {
	q := dsd.Query{
		H:         w.H,
		Workers:   w.Workers,
		Iterative: w.Iterative,
		Anchors:   w.Anchors,
		AtLeast:   w.AtLeast,
		Eps:       w.Eps,
		Version:   dsd.Version(w.Version),
		Deadline:  time.Duration(w.DeadlineMs) * time.Millisecond,
		Gap:       w.Gap,
	}
	if w.Algo != "" {
		a, err := dsd.ParseAlgo(w.Algo)
		if err != nil {
			return dsd.Query{}, err
		}
		q.Algo = a
	}
	if w.Pattern != "" {
		p, err := dsd.PatternByName(w.Pattern)
		if err != nil {
			return dsd.Query{}, err
		}
		q.Pattern = p
	}
	return q, nil
}

// FromQuery encodes q for the wire. Patterns are carried by canonical
// name; pass a normalized query (dsd.Query.Normalized) to echo the
// canonical form.
func FromQuery(q dsd.Query) Query {
	w := Query{
		Algo:       string(q.Algo),
		Workers:    q.Workers,
		Iterative:  q.Iterative,
		Anchors:    q.Anchors,
		AtLeast:    q.AtLeast,
		Eps:        q.Eps,
		Version:    int64(q.Version),
		DeadlineMs: int64(q.Deadline / time.Millisecond),
		Gap:        q.Gap,
	}
	if q.Pattern != nil {
		w.Pattern = q.Psi()
	} else {
		w.H = q.H
	}
	return w
}

// QueryStats is the wire form of dsd.QueryStats, serialized verbatim:
// phase timings, flow-solve counts, the Greed++ pre-solver's counters,
// and the Solver-reuse flags that prove a warm query skipped
// recomputation.
type QueryStats struct {
	DecomposeMs         float64 `json:"decompose_ms"`
	TotalMs             float64 `json:"total_ms"`
	FlowSolves          int     `json:"flow_solves"`
	FlowNodes           []int   `json:"flow_nodes,omitempty"`
	PreSolveIters       int     `json:"pre_solve_iters"`
	PreSolveSkips       int     `json:"pre_solve_skips"`
	ReusedDecomposition bool    `json:"reused_decomposition,omitempty"`
	ReusedDegrees       bool    `json:"reused_degrees,omitempty"`
	// BoundedCores: the run located on upper-bound core numbers carried
	// across a mutation instead of peeling its own graph version.
	BoundedCores bool `json:"bounded_cores,omitempty"`
	// FlowMs / PreSolveMs attribute the run's wall time to flow solves
	// and Exact's Greed++ pre-solve (0 on core-exact runs); on parallel
	// runs the phases overlap across workers, so the sums can exceed
	// TotalMs.
	FlowMs     float64 `json:"flow_ms,omitempty"`
	PreSolveMs float64 `json:"pre_solve_ms,omitempty"`
	// AllocBytes / Allocs are the heap allocation attributed to the run
	// (the root span's allocation-counter delta; zero when tracing was
	// off). Process-wide counters: concurrent queries inflate each
	// other's deltas.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`
	// Trace is the run's phase-level span tree, present only when the
	// serving engine ran with tracing enabled.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// FromQueryStats converts a run's stats into their wire form.
func FromQueryStats(st dsd.QueryStats) *QueryStats {
	return &QueryStats{
		DecomposeMs:         float64(st.Decompose) / float64(time.Millisecond),
		TotalMs:             float64(st.Total) / float64(time.Millisecond),
		FlowSolves:          st.Iterations,
		FlowNodes:           st.FlowNodes,
		PreSolveIters:       st.PreSolveIters,
		PreSolveSkips:       st.PreSolveSkips,
		ReusedDecomposition: st.ReusedDecomposition,
		ReusedDegrees:       st.ReusedDegrees,
		BoundedCores:        st.BoundedCores,
		FlowMs:              float64(st.FlowTime) / float64(time.Millisecond),
		PreSolveMs:          float64(st.PreSolveTime) / float64(time.Millisecond),
		AllocBytes:          st.AllocBytes,
		Allocs:              st.Allocs,
		Trace:               st.Trace,
	}
}

// QueryV2Request asks for the answer to a dsd.Query on a registered
// graph (POST /v2/query).
type QueryV2Request struct {
	Graph string `json:"graph"`
	Query Query  `json:"query"`
	// TimeoutMs optionally tightens (never loosens) the server's
	// per-query timeout for this request.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// QueryV2Response is the answer to a QueryV2Request. Query echoes the
// canonical form of the query actually answered (engine defaults
// applied, algorithm inferred); Stats is the run's QueryStats — note
// that under Cached they describe the original computation, not this
// request.
type QueryV2Response struct {
	Graph  string      `json:"graph"`
	Query  Query       `json:"query"`
	Cached bool        `json:"cached"`
	Result *Result     `json:"result"`
	Stats  *QueryStats `json:"stats,omitempty"`
}

// RegisterRequest registers a named graph, either from an inline
// whitespace edge list ("u v" per line) or from a file path readable by
// the server.
type RegisterRequest struct {
	Name  string `json:"name"`
	Edges string `json:"edges,omitempty"`
	Path  string `json:"path,omitempty"`
}

// GraphInfo is the registry's view of one graph: its name plus the
// precomputed structural summary (the paper's Table 2 columns).
type GraphInfo struct {
	Name       string  `json:"name"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Components int     `json:"components"`
	Diameter   int     `json:"diameter"`
	MaxDegree  int     `json:"max_degree"`
	PowerLawA  float64 `json:"power_law_alpha"`
}

// FromStats builds a GraphInfo from a precomputed structural summary.
func FromStats(name string, s graph.Stats) GraphInfo {
	return GraphInfo{
		Name:       name,
		N:          s.N,
		M:          s.M,
		Components: s.Components,
		Diameter:   s.Diameter,
		MaxDegree:  s.MaxDegree,
		PowerLawA:  s.PowerLawA,
	}
}

// MutateRequest applies an edge-mutation batch to a registered graph
// (POST /v1/graphs/{g}/edges): the edges to delete and the edges to
// insert, applied atomically as one new graph version (deletes first;
// see dsd.Mutation for the skip semantics).
type MutateRequest struct {
	Delete [][2]int `json:"delete,omitempty"`
	Insert [][2]int `json:"insert,omitempty"`
}

// MutateResponse reports what the batch changed and the graph version
// now current. A batch that changed nothing echoes the unchanged
// version.
type MutateResponse struct {
	Graph          string `json:"graph"`
	Version        int64  `json:"version"`
	Inserted       int    `json:"inserted"`
	Deleted        int    `json:"deleted"`
	SkippedInserts int    `json:"skipped_inserts,omitempty"`
	SkippedDeletes int    `json:"skipped_deletes,omitempty"`
	NewVertices    int    `json:"new_vertices,omitempty"`
	N              int    `json:"n"`
	M              int    `json:"m"`
}

// GraphDetail is the per-graph lifecycle view (GET /v1/graphs/{g}):
// the registered-time structural summary, the current head version with
// live vertex/edge counts (they drift from the summary as mutations
// land), and the set of retained versions pinned queries may target.
type GraphDetail struct {
	GraphInfo
	Version int64 `json:"version"`
	// LiveN / LiveM are the head version's counts; GraphInfo's N and M
	// describe the graph as registered.
	LiveN    int     `json:"live_n"`
	LiveM    int     `json:"live_m"`
	Versions []int64 `json:"versions"`
}

// StatsResponse is the service's operational counters. Workers is the
// query-pool bound; AlgoWorkers is the per-query intra-algorithm budget
// (the two compose to the service's total parallelism). AlgoIterative is
// the per-query budget of a stream's Greed++ rung (0 = library default,
// negative = off, positive = iteration budget).
type StatsResponse struct {
	Graphs        int   `json:"graphs"`
	Workers       int   `json:"workers"`
	AlgoWorkers   int   `json:"algo_workers"`
	AlgoIterative int   `json:"algo_iterative"`
	Queries       int64 `json:"queries"`
	Computes      int64 `json:"computes"`
	CacheHits     int64 `json:"cache_hits"`
	Errors        int64 `json:"errors"`
	// AwaitOrphans counts abandoned computations — callers timed out on a
	// non-preemptible algorithm and the engine finished (and dropped) the
	// answer anyway; see dsd.AwaitOrphans.
	AwaitOrphans int64 `json:"await_orphans"`
	// Shed counts queries rejected at admission (503 + Retry-After)
	// because the engine's admission queue was full.
	Shed int64 `json:"shed,omitempty"`
	// Streams counts anytime streaming queries (POST /v1/stream and
	// Engine.Stream).
	Streams int64 `json:"streams,omitempty"`
	// RetryAfterSeconds is the engine's current shed back-off advice —
	// the value a 503's Retry-After header would carry right now. Clients
	// can poll it to pace themselves before shedding starts.
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// QueryLogSchema names the GET /v1/querylog response format.
const QueryLogSchema = "dsd-querylog/v1"

// QueryLogResponse is the wide-event query log (GET /v1/querylog):
// the retained events newest-first plus the ring's tail-sampling
// accounting — Seen events offered, Retained written to the ring, and
// Sampled routine successes dropped by the 1-in-SampleEvery policy
// (anomalous events are always retained; see obs.QueryEvent.Retain).
type QueryLogResponse struct {
	Schema      string            `json:"schema"`
	Capacity    int               `json:"capacity"`
	SampleEvery int               `json:"sample_every"`
	Seen        uint64            `json:"seen"`
	Retained    uint64            `json:"retained"`
	Sampled     uint64            `json:"sampled"`
	Events      []*obs.QueryEvent `json:"events"`
}

// ErrorResponse carries an API error.
type ErrorResponse struct {
	Error string `json:"error"`
}
