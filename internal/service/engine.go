package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service/wire"
)

// Config tunes an Engine.
type Config struct {
	// Workers bounds how many densest-subgraph computations run at once
	// (0 = GOMAXPROCS). Queries beyond the bound queue for a slot.
	Workers int
	// QueueDepth bounds how many computations may wait for a worker slot
	// beyond the Workers running (0 = 4×Workers, negative = unbounded).
	// A computation arriving past the bound is shed immediately with
	// ErrOverloaded — the HTTP layer answers 503 + Retry-After — instead
	// of queuing into a timeout. Cache hits and single-flight joins are
	// never shed; only fresh computations pass through the queue.
	QueueDepth int
	// Timeout bounds each computation, end to end, including the wait
	// for a worker slot (0 = no timeout). A request's own timeout only
	// bounds how long that caller waits; the shared computation answers
	// to this budget alone.
	Timeout time.Duration
	// AlgoWorkers is the default Query.Workers for queries that leave it
	// zero: intra-query parallelism for algorithms with a parallel engine
	// (core-exact). 0 derives it from the pool size as
	// max(1, GOMAXPROCS/Workers), so the query pool and the algorithm
	// pool compose to ≈ GOMAXPROCS total instead of multiplying; 1
	// forces serial algorithms regardless of pool size.
	AlgoWorkers int
	// AlgoIterative is the default Query.Iterative for queries that leave
	// it zero: 0 keeps the library default, negative skips a stream's
	// Greed++ rung, positive sets its iteration budget. Only /v1/stream
	// reads it; core-exact solves run no Greed++.
	AlgoIterative int
	// ComputeHook, when non-nil, runs at the start of every computation,
	// on the compute goroutine, after the worker slot is acquired. It is
	// a test and fault-injection seam: a blocking hook holds worker
	// slots (driving the admission queue), a sleeping hook injects
	// compute latency. Nil costs nothing.
	ComputeHook func()
	// Metrics is the registry the engine's counters, gauges, and latency
	// histograms land in — the one /metrics serves (nil = a fresh private
	// registry, so instrumentation is always live).
	Metrics *obs.Registry
	// Logger receives the engine's structured records, most importantly
	// the slow-query log (nil discards them).
	Logger *slog.Logger
	// SlowQuery is the slow-query-log threshold: a computed query whose
	// total time reaches it is logged at Warn with its full phase
	// breakdown. 0 disables the log.
	SlowQuery time.Duration
	// NoTrace disables per-query phase tracing. By default every computed
	// query runs under a fresh obs.Tracer and its span tree returns on
	// QueryStats.Trace; the off path costs nothing on the hot loop, so
	// this exists for callers that do not want traces in responses.
	NoTrace bool
	// QueryLog bounds the wide-event query log ring (0 =
	// obs.DefQueryLogSize, negative = disabled). Every admission outcome
	// — shed included — emits one obs.QueryEvent into it; GET
	// /v1/querylog serves the retained tail.
	QueryLog int
	// QueryLogSample keeps one in N routine successes in the query log
	// (0 = obs.DefQueryLogSample, 1 = keep all). Slow, degraded, shed,
	// and errored queries are always retained regardless.
	QueryLogSample int
}

// Engine dispatches dsd.Query values against registered graphs through a
// bounded worker pool, memoizing results in a single-flight cache keyed
// on the query's canonical encoding, so concurrent identical queries
// compute once. The algorithms themselves run on the registry's
// per-graph Solvers, which memoize per-Ψ state across cache misses —
// distinct queries on a hot graph still skip the decomposition.
type Engine struct {
	reg           *Registry
	cache         *Cache
	sem           chan struct{}
	admit         chan struct{} // nil = unbounded admission
	timeout       time.Duration
	algoWorkers   int
	algoIterative int
	computeHook   func()

	metrics   *obs.Registry
	log       *slog.Logger
	slowQuery time.Duration
	noTrace   bool
	qlog      *obs.QueryLog // nil = query log disabled

	queries  atomic.Int64
	computes atomic.Int64
	hits     atomic.Int64
	errors   atomic.Int64
	shed     atomic.Int64
	streams  atomic.Int64

	drain drainEst
}

// drainEst estimates the admission queue's drain rate: an EWMA of the
// gaps between computation completions. Shed responses derive their
// Retry-After from it — queue occupancy × the estimated per-completion
// gap says when a freed slot is actually likely, instead of a hard-coded
// constant.
type drainEst struct {
	mu   sync.Mutex
	last time.Time
	ewma float64 // seconds per completion
	n    int64
}

// observe records one computation completion at now.
func (d *drainEst) observe(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.last.IsZero() {
		gap := now.Sub(d.last).Seconds()
		if d.n == 0 {
			d.ewma = gap
		} else {
			d.ewma = 0.75*d.ewma + 0.25*gap
		}
		d.n++
	}
	d.last = now
}

// estimate returns the EWMA gap in seconds and whether any sample
// exists yet.
func (d *drainEst) estimate() (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ewma, d.n > 0
}

// RetryAfter is the engine's current shed back-off advice: how long a
// shed caller should wait before a retry has a real chance of admission.
// It is the admission queue's occupancy times the observed EWMA
// inter-completion gap, clamped to [ShedRetryAfter, MaxShedRetryAfter];
// with no completions observed yet (or an unbounded queue) it is the
// floor. The HTTP layer serves it as the Retry-After header on 503s and
// /v1/stats reports it so clients can pace themselves before shedding
// starts.
func (e *Engine) RetryAfter() time.Duration {
	queued := 0
	if e.admit != nil {
		queued = len(e.admit)
	}
	gap, ok := e.drain.estimate()
	if !ok || queued == 0 {
		return ShedRetryAfter
	}
	est := time.Duration(gap * float64(queued) * float64(time.Second))
	if est < ShedRetryAfter {
		return ShedRetryAfter
	}
	if est > MaxShedRetryAfter {
		return MaxShedRetryAfter
	}
	return est
}

// ErrOverloaded is returned (wrapped) when the admission queue is full:
// the query was shed without any work. The HTTP layer maps it to
// 503 + Retry-After; callers should back off and retry.
var ErrOverloaded = errors.New("service: overloaded, admission queue full")

// DefaultQueueFactor sizes the default admission queue: QueueDepth 0
// admits up to Workers running + DefaultQueueFactor×Workers waiting.
const DefaultQueueFactor = 4

// NewEngine builds an engine over reg.
func NewEngine(reg *Registry, cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	algoWorkers := cfg.AlgoWorkers
	if algoWorkers <= 0 {
		algoWorkers = runtime.GOMAXPROCS(0) / workers
		if algoWorkers < 1 {
			algoWorkers = 1
		}
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	var admit chan struct{}
	if cfg.QueueDepth >= 0 {
		depth := cfg.QueueDepth
		if depth == 0 {
			depth = DefaultQueueFactor * workers
		}
		admit = make(chan struct{}, workers+depth)
	}
	// Pre-register the resilience counters so /metrics shows them at
	// zero from boot, not only after the first shed or degraded answer.
	metrics.Counter("dsd_shed_total",
		"Queries shed at admission because the queue was full.")
	metrics.Counter("dsd_degraded_total",
		"Queries answered degraded (certified bounds, not the exact optimum).")
	metrics.Counter("dsd_stream_events_total",
		"Certified answers delivered on anytime streams.")
	// Same convention for the labeled cost histogram: declare the family
	// so a cold scrape sees its HELP/TYPE before the first observation
	// mints a (graph, algo) series.
	metrics.Declare("dsd_query_alloc_bytes",
		"Heap bytes allocated per computed query, by graph and algorithm.",
		"histogram", obs.DefAllocBuckets...)
	// Go runtime telemetry (heap, GC pauses, goroutines, GOMAXPROCS)
	// refreshes on every scrape of the same registry.
	obs.RegisterRuntimeCollector(metrics)
	var qlog *obs.QueryLog
	if cfg.QueryLog >= 0 {
		qlog = obs.NewQueryLog(cfg.QueryLog, cfg.QueryLogSample)
	}
	return &Engine{
		reg:           reg,
		cache:         NewCache(),
		sem:           make(chan struct{}, workers),
		admit:         admit,
		timeout:       cfg.Timeout,
		algoWorkers:   algoWorkers,
		algoIterative: cfg.AlgoIterative,
		computeHook:   cfg.ComputeHook,
		metrics:       metrics,
		log:           logger,
		slowQuery:     cfg.SlowQuery,
		noTrace:       cfg.NoTrace,
		qlog:          qlog,
	}
}

// QueryLog returns the engine's wide-event query log (nil when
// disabled).
func (e *Engine) QueryLog() *obs.QueryLog { return e.qlog }

// Metrics returns the engine's metrics registry — the one /metrics
// serves.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// AlgoWorkers returns the per-query intra-algorithm worker budget.
func (e *Engine) AlgoWorkers() int { return e.algoWorkers }

// AlgoIterative returns the per-query Greed++ rung setting
// (0 = library default, negative = off, positive = iteration budget).
func (e *Engine) AlgoIterative() int { return e.algoIterative }

// Solve answers q against the graph registered under graphName. ctx and
// timeout (if positive) bound how long this caller waits; the
// computation itself is bounded only by the engine-wide budget, since
// under single flight it serves every waiter on the key and one
// impatient client must not void it for the rest. cached reports that
// the answer was served without running the algorithm on this request's
// behalf (a cache hit or a single-flight join).
func (e *Engine) Solve(ctx context.Context, graphName string, q dsd.Query, timeout time.Duration) (res *core.Result, cached bool, err error) {
	_, res, cached, err = e.solveCounted(ctx, graphName, q, timeout)
	return res, cached, err
}

// solveCounted is Solve also returning the canonical query it answered —
// defaults applied, algorithm inferred, version pinned — which the HTTP
// handler echoes. Every failure, an unknown graph included, passes
// through the engine's accounting on the way out.
func (e *Engine) solveCounted(ctx context.Context, graphName string, q dsd.Query, timeout time.Duration) (nq dsd.Query, res *core.Result, cached bool, err error) {
	e.queries.Add(1)
	defer func() {
		if err != nil {
			e.errors.Add(1)
		}
	}()
	return e.solve(ctx, graphName, q, timeout, nil, nil)
}

// Resolve applies the engine's default knobs to the fields q leaves at
// zero and returns the canonical form — the query Solve will actually
// answer and key on, before any computation runs. Filling defaults ahead
// of keying makes "default" and "explicitly the default" the same
// computation and the same cache entry.
func (e *Engine) Resolve(q dsd.Query) (dsd.Query, error) {
	if q.Workers == 0 {
		q.Workers = e.algoWorkers
	}
	if q.Iterative == 0 {
		q.Iterative = e.algoIterative
	}
	return q.Normalized()
}

// ResolveFor is Resolve against a specific registered graph: on top of
// the engine defaults it resolves Version 0 (the floating "current
// head") to the graph's concrete head version at admission time. The
// pinned version is what the cache keys on and what the response echoes,
// so a query admitted before a mutation is answered — and cached — on
// the pre-mutation version even if the head advances mid-flight, and two
// queries around a mutation can never share a cache entry.
func (e *Engine) ResolveFor(graphName string, q dsd.Query) (dsd.Query, error) {
	entry, ok := e.reg.Get(graphName)
	if !ok {
		return dsd.Query{}, fmt.Errorf("service: unknown graph %q", graphName)
	}
	nq, err := e.Resolve(q)
	if err != nil {
		return dsd.Query{}, err
	}
	if nq.Version == 0 {
		nq.Version = entry.Solver.Version()
	}
	return nq, nil
}

// solve is the shared pipeline behind Solve and Stream (counters
// are the callers' concern): resolve the graph, apply engine defaults,
// normalize, and run through the single-flight cache on the canonical
// query, which it returns beside the result (zero when resolution
// failed). A non-nil sink turns the computation into a refinement
// stream: the single-flight LEADER pushes every certified answer through
// it while computing (joiners and cache hits get nothing here — their
// one synthesized final event is the caller's concern), and only the
// terminal result enters the cache, so intermediate answers can never be
// served to anyone as a cached exact value.
func (e *Engine) solve(ctx context.Context, graphName string, q dsd.Query, timeout time.Duration, sink func(dsd.Answer), emit func(*obs.QueryEvent)) (canon dsd.Query, res *core.Result, cached bool, err error) {
	// Per-request accounting: one counter increment per (graph, algo,
	// outcome) and one end-to-end latency observation per (graph, algo) —
	// cache hits included, since the caller's latency is what the
	// histogram answers for. Unresolvable requests land under "unknown"
	// labels so hostile graph names cannot mint unbounded series.
	//
	// The same defer emits the wide query event — one per request, every
	// admission outcome included: a shed that never reached a worker
	// still produces its event, which is how /v1/querylog sees 503s the
	// solver never did. A non-nil emit intercepts the event instead of
	// recording it (Stream appends its event count before recording).
	qstart := time.Now()
	glabel, alabel := "unknown", "unknown"
	var queryKey string
	var queryVersion uint64
	var queueWaitNs atomic.Int64 // set by the single-flight leader's fn
	defer func() {
		outcome := "ok"
		switch {
		case err != nil && errors.Is(err, ErrOverloaded):
			outcome = "shed"
		case err != nil && errors.Is(err, context.DeadlineExceeded):
			outcome = "timeout"
		case err != nil:
			outcome = "error"
		case cached:
			outcome = "cache_hit"
		}
		e.metrics.Counter("dsd_queries_total",
			"Queries served, by graph, algorithm, and outcome.",
			"graph", glabel, "algo", alabel, "outcome", outcome).Inc()
		e.metrics.Histogram("dsd_query_seconds",
			"End-to-end query latency as the caller saw it, cache hits included.",
			obs.DefLatencyBuckets, "graph", glabel, "algo", alabel).ObserveSeconds(time.Since(qstart))
		ev := &obs.QueryEvent{
			TimeUnixNs: time.Now().UnixNano(),
			Graph:      glabel,
			Algo:       alabel,
			QueryKey:   queryKey,
			Version:    queryVersion,
			Outcome:    outcome,
			Cached:     cached && err == nil,
			Shed:       err != nil && errors.Is(err, ErrOverloaded),
			DurNs:      int64(time.Since(qstart)),
		}
		if err != nil {
			ev.Error = err.Error()
		}
		if !ev.Cached {
			ev.QueueWaitNs = queueWaitNs.Load()
		}
		if res != nil && err == nil {
			fillEventFromResult(ev, res)
			// Slow marks the computation, so never a cache hit — the hit
			// didn't recompute; the original computation already emitted
			// its own slow event.
			ev.Slow = !cached && e.slowQuery > 0 && res.Stats.Total >= e.slowQuery
		}
		if emit != nil {
			emit(ev)
		} else {
			e.recordEvent(ev)
		}
	}()
	if err := ctx.Err(); err != nil {
		return canon, nil, false, err
	}
	entry, ok := e.reg.Get(graphName)
	if !ok {
		return canon, nil, false, fmt.Errorf("service: unknown graph %q", graphName)
	}
	glabel = graphName
	nq, err := e.Resolve(q)
	if err != nil {
		return canon, nil, false, err
	}
	// Pin the version as a Snapshot, not a bare number: a burst of
	// mutations that evicts it from the retention window before a worker
	// picks the query up cannot take it away. Version 0, the floating
	// head, becomes the concrete head version (see ResolveFor); from here
	// on the computation, its cache entry, and its answer all name one
	// immutable graph version. A version already evicted stays unpinned:
	// a cached answer may still serve it, and a computation reports it
	// not retained.
	snap, pinErr := entry.Solver.At(nq.Version)
	if nq.Version == 0 {
		nq.Version = snap.Version()
	}
	alabel = string(nq.Algo)
	queryKey = nq.Key()
	queryVersion = uint64(nq.Version)

	waitCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	key := Key{Graph: entry.CacheKey(), Query: nq.Key()}
	res, cached, err = e.cache.Do(waitCtx, key, func() (*core.Result, error) {
		// Admission control, before any work or waiting: a computation
		// arriving past the queue bound is shed immediately — a fast 503
		// the caller can retry beats a slow timeout that holds its
		// connection. This runs only on single-flight leaders, so cache
		// hits and joins of an in-flight computation are never shed.
		if e.admit != nil {
			select {
			case e.admit <- struct{}{}:
				defer func() {
					<-e.admit
					// A released slot is a drain-rate sample; shed
					// Retry-After advice is derived from these.
					e.drain.observe(time.Now())
				}()
			default:
				e.shed.Add(1)
				e.metrics.Counter("dsd_shed_total",
					"Queries shed at admission because the queue was full.").Inc()
				return nil, fmt.Errorf("service: query %v: %w", key, ErrOverloaded)
			}
		}
		// The computation is deliberately detached from the submitting
		// request's ctx: under single flight it serves every waiter on
		// the key, so only the engine's own budget may cancel it.
		cctx := context.Background()
		if e.timeout > 0 {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(cctx, e.timeout)
			defer cancel()
			if err := cctx.Err(); err != nil {
				return nil, fmt.Errorf("service: query %v: %w", key, err)
			}
		}
		qwStart := time.Now()
		select {
		case e.sem <- struct{}{}:
		case <-cctx.Done():
			return nil, fmt.Errorf("service: query %v timed out waiting for a worker: %w", key, cctx.Err())
		}
		queueWait := time.Since(qwStart)
		queueWaitNs.Store(int64(queueWait))
		e.metrics.Histogram("dsd_queue_wait_seconds",
			"Time a computation spent waiting for a worker-pool slot.",
			obs.DefLatencyBuckets).ObserveSeconds(queueWait)
		e.computes.Add(1)
		e.metrics.Counter("dsd_computes_total",
			"Computations actually run (single-flight cache misses), by graph and algorithm.",
			"graph", graphName, "algo", string(nq.Algo)).Inc()
		type outcome struct {
			res *core.Result
			err error
		}
		// The worker slot is held until the algorithm truly returns, not
		// until the budget fires. Core-exact honors a context
		// cooperatively — it stops within one flow solve of the budget
		// firing, so it may see cctx and release its slot promptly. The
		// other algorithms are not preemptible: they get a detached
		// context so the facade blocks until the computation actually
		// ends, and their timed-out computation keeps occupying a worker
		// — the Workers bound accounts for it.
		algoCtx := context.Background()
		if nq.Algo == dsd.AlgoCoreExact {
			algoCtx = cctx
		}
		// Root the per-query trace. Solver.Solve opens its own solve span
		// under this root when the context carries the tracer; with
		// NoTrace the tracer is nil and every span call below it is a
		// no-op that allocates nothing.
		var tr *obs.Tracer
		if !e.noTrace {
			tr = obs.New()
		}
		root := tr.Start(obs.SpanQuery, nil)
		if root != nil {
			root.SetAttr("graph", graphName)
			root.SetAttr("algo", string(nq.Algo))
			root.SetFloat("queue_wait_ms", float64(queueWait)/float64(time.Millisecond))
			algoCtx = obs.WithSpan(algoCtx, tr, root)
		}
		done := make(chan outcome, 1)
		go func() {
			defer func() { <-e.sem }()
			if e.computeHook != nil {
				e.computeHook()
			}
			var r *core.Result
			var err error
			switch {
			case snap == nil:
				err = pinErr
			case sink != nil:
				r, err = snap.StreamFunc(algoCtx, nq, sink)
			default:
				r, err = snap.Solve(algoCtx, nq)
			}
			root.End()
			if err == nil && r != nil {
				if tr != nil {
					// The run's resource cost is the root span's allocation
					// delta — process-wide counters, so concurrent queries
					// inflate each other's deltas (the per-phase trace says
					// where the bytes went).
					r.Stats.AllocBytes, r.Stats.Allocs = root.AllocDelta()
					if r.Stats.AllocBytes > 0 {
						e.metrics.Histogram("dsd_query_alloc_bytes",
							"Heap bytes allocated per computed query, by graph and algorithm.",
							obs.DefAllocBuckets, "graph", graphName, "algo", string(nq.Algo)).
							Observe(float64(r.Stats.AllocBytes))
					}
					// The engine's snapshot supersedes the solver's own:
					// same spans plus the root query span.
					r.Stats.Trace = tr.Snapshot()
				}
				if r.Degraded {
					e.metrics.Counter("dsd_degraded_total",
						"Queries answered degraded (certified bounds, not the exact optimum).").Inc()
				}
				e.observeComputed(graphName, nq, r, queueWait)
			}
			done <- outcome{r, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-cctx.Done():
			return nil, fmt.Errorf("service: query %v: %w", key, cctx.Err())
		}
	})
	if cached && err == nil {
		e.hits.Add(1)
	}
	return nq, res, cached, err
}

// Mutate applies an edge-mutation batch to the graph registered under
// graphName (see dsd.Solver.Mutate for the versioning and incremental-
// repair semantics) and returns what changed. Effective operations are
// counted in dsd_mutations_total by graph and op; pinned in-flight
// queries are unaffected — they hold their version's state.
func (e *Engine) Mutate(ctx context.Context, graphName string, m dsd.Mutation) (*dsd.MutationDelta, error) {
	entry, ok := e.reg.Get(graphName)
	if !ok {
		return nil, fmt.Errorf("service: unknown graph %q", graphName)
	}
	d, err := entry.Solver.Mutate(ctx, m)
	if err != nil {
		return nil, err
	}
	if d.Inserted > 0 {
		e.metrics.Counter("dsd_mutations_total",
			"Effective edge mutations applied, by graph and operation.",
			"graph", graphName, "op", "insert").Add(int64(d.Inserted))
	}
	if d.Deleted > 0 {
		e.metrics.Counter("dsd_mutations_total",
			"Effective edge mutations applied, by graph and operation.",
			"graph", graphName, "op", "delete").Add(int64(d.Deleted))
	}
	return d, nil
}

// DeleteGraph unregisters the graph under graphName and evicts its
// cached results (in-flight queries holding the entry finish normally).
// The name may be re-used afterwards; the cache keys on the entry's
// registration ID, so a re-registered name starts with a cold cache.
func (e *Engine) DeleteGraph(graphName string) error {
	entry, ok := e.reg.Remove(graphName)
	if !ok {
		return fmt.Errorf("service: unknown graph %q", graphName)
	}
	evicted := e.cache.EvictGraph(entry.CacheKey())
	e.metrics.Counter("dsd_graph_evictions_total",
		"Graphs unregistered via DELETE, by graph.",
		"graph", graphName).Inc()
	e.log.Info("graph deleted",
		slog.String("graph", graphName),
		slog.Int("cache_entries_evicted", evicted))
	return nil
}

// GraphDetail returns the per-graph lifecycle view: registered-time
// stats, the current head version with its live counts, and the
// retained versions pinned queries may target.
func (e *Engine) GraphDetail(graphName string) (wire.GraphDetail, error) {
	entry, ok := e.reg.Get(graphName)
	if !ok {
		return wire.GraphDetail{}, fmt.Errorf("service: unknown graph %q", graphName)
	}
	g := entry.Solver.Graph()
	vers := entry.Solver.Versions()
	wv := make([]int64, len(vers))
	for i, v := range vers {
		wv[i] = int64(v)
	}
	return wire.GraphDetail{
		GraphInfo: entry.Info(),
		Version:   int64(entry.Solver.Version()),
		LiveN:     g.N(),
		LiveM:     g.M(),
		Versions:  wv,
	}, nil
}

// Stats returns the engine's operational counters.
func (e *Engine) Stats() wire.StatsResponse {
	return wire.StatsResponse{
		Graphs:            e.reg.Len(),
		Workers:           cap(e.sem),
		AlgoWorkers:       e.algoWorkers,
		AlgoIterative:     e.algoIterative,
		Queries:           e.queries.Load(),
		Computes:          e.computes.Load(),
		CacheHits:         e.hits.Load(),
		Errors:            e.errors.Load(),
		AwaitOrphans:      dsd.AwaitOrphans(),
		Shed:              e.shed.Load(),
		Streams:           e.streams.Load(),
		RetryAfterSeconds: e.RetryAfter().Seconds(),
	}
}
