package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dsd "repro"
	"repro/internal/obs"
	planner "repro/internal/plan"
	"repro/internal/rational"
	"repro/internal/resilience"
	"repro/internal/service/wire"
)

// Config tunes a Coordinator.
type Config struct {
	// HTTPClient carries the v3 traffic (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Hedge is the straggler delay: a remote component search that has
	// not answered after this long gets a duplicate local search racing
	// it, first result wins. 0 picks DefaultHedge; negative disables
	// hedging.
	Hedge time.Duration
	// ComponentTimeout bounds each remote component attempt (0 = only
	// the query's own ctx). A timed-out attempt counts as a failure and
	// falls back to local execution.
	ComponentTimeout time.Duration
	// FailureLimit is how many remote failures a shard is allowed within
	// one query before the coordinator stops offering it components and
	// runs the rest of that lane locally (0 = DefaultFailureLimit).
	FailureLimit int
	// Retries is how many times a retryable (503 + Retry-After) remote
	// component attempt is retried with jittered exponential backoff
	// before falling back to local execution (0 = DefaultRetries;
	// negative disables retries).
	Retries int
	// RetryBackoff overrides the retry delay policy (nil = a default
	// resilience.NewBackoff(DefaultRetryBase, DefaultRetryMax, seed 1) —
	// deterministic, so fault-injection runs reproduce).
	RetryBackoff *resilience.Backoff
	// BreakerThreshold consecutive remote failures open a worker's
	// circuit breaker; while open, its components run locally without
	// paying a connect timeout. BreakerCooldown later a single probe
	// decides between closing and re-opening. Zero values pick the
	// resilience package defaults (5 failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BoundTimeout bounds one best-effort bound rebroadcast to a worker
	// (0 = DefaultBoundTimeout).
	BoundTimeout time.Duration
	// Metrics receives the coordinator's per-worker gauges and counters
	// (in-flight components, latency EWMA, remote/fallback/hedge totals);
	// nil uses a private registry, keeping every update path live.
	Metrics *obs.Registry
}

// DefaultHedge is the default straggler-hedging delay. It only bounds
// how long a lost answer stays lost — correctness never depends on it —
// so it errs high enough that healthy-but-busy workers are not flooded
// with duplicate work.
const DefaultHedge = 3 * time.Second

// DefaultFailureLimit is how many remote failures one query tolerates
// per shard before writing the shard off for the rest of that query.
const DefaultFailureLimit = 2

// DefaultBoundTimeout bounds one best-effort bound rebroadcast.
const DefaultBoundTimeout = 2 * time.Second

// DefaultRetries is how many backoff retries a retryable remote failure
// gets before the component falls back to local execution.
const DefaultRetries = 2

// Default backoff window for component retries: base doubles per
// attempt with equal jitter, capped at the max.
const (
	DefaultRetryBase = 50 * time.Millisecond
	DefaultRetryMax  = 2 * time.Second
)

// Coordinator executes CoreExact/CorePExact queries by planning locally
// and fanning the located core's components out to shard workers. One
// goroutine lane per worker pulls components off a shared cursor —
// densest first, matching the in-process engine's order — so faster
// shards naturally take more components; results merge through a
// monotone cell whose improvements are rebroadcast to every in-flight
// search. A failed or straggling remote search is re-executed locally
// (fallback/hedge), so losing workers degrades throughput, never
// answers.
type Coordinator struct {
	src          SolverSource
	set          *Set
	client       *Client
	hedge        time.Duration
	compTimeout  time.Duration
	failLimit    int
	retries      int
	backoff      *resilience.Backoff
	brkThreshold int
	brkCooldown  time.Duration
	boundTimeout time.Duration
	token        string
	seq          atomic.Int64
	solves       atomic.Int64
	metrics      *obs.Registry

	healthMu sync.Mutex
	health   map[string]*workerHealth
}

// NewCoordinator builds a coordinator answering from src (planning and
// fallback execution) and dispatching to the workers registered in set.
func NewCoordinator(src SolverSource, set *Set, cfg Config) *Coordinator {
	hedge := cfg.Hedge
	switch {
	case hedge == 0:
		hedge = DefaultHedge
	case hedge < 0:
		hedge = 0 // disabled
	}
	failLimit := cfg.FailureLimit
	if failLimit <= 0 {
		failLimit = DefaultFailureLimit
	}
	retries := cfg.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0 // disabled
	}
	backoff := cfg.RetryBackoff
	if backoff == nil {
		// A fixed seed keeps chaos runs reproducible; the jitter still
		// decorrelates retries within a run (the sequence advances per
		// draw).
		backoff = resilience.NewBackoff(DefaultRetryBase, DefaultRetryMax, 1)
	}
	boundTO := cfg.BoundTimeout
	if boundTO <= 0 {
		boundTO = DefaultBoundTimeout
	}
	tok := make([]byte, 4)
	rand.Read(tok)
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return &Coordinator{
		src:          src,
		set:          set,
		client:       NewClient(cfg.HTTPClient),
		hedge:        hedge,
		compTimeout:  cfg.ComponentTimeout,
		failLimit:    failLimit,
		retries:      retries,
		backoff:      backoff,
		brkThreshold: cfg.BreakerThreshold,
		brkCooldown:  cfg.BreakerCooldown,
		boundTimeout: boundTO,
		token:        hex.EncodeToString(tok),
		metrics:      metrics,
		health:       make(map[string]*workerHealth),
	}
}

// healthFor returns (creating on first use) the live health record of
// the worker at addr.
func (c *Coordinator) healthFor(addr string) *workerHealth {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	h, ok := c.health[addr]
	if !ok {
		b := resilience.NewBreaker(c.brkThreshold, c.brkCooldown)
		b.OnChange = func(s resilience.State) {
			c.metrics.Gauge("dsd_shard_breaker_state",
				"Worker circuit-breaker state (0 closed, 1 half-open, 2 open).",
				"worker", addr).Set(float64(s))
		}
		// Pre-register the gauge at closed so /metrics shows every worker
		// from first dispatch, not only after a transition.
		c.metrics.Gauge("dsd_shard_breaker_state",
			"Worker circuit-breaker state (0 closed, 1 half-open, 2 open).",
			"worker", addr).Set(float64(resilience.StateClosed))
		h = &workerHealth{breaker: b}
		c.health[addr] = h
	}
	return h
}

// Health snapshots every worker the coordinator has dispatched to,
// sorted by address — the per-worker view /v1/stats exposes and the
// substrate latency-aware placement will steer by.
func (c *Coordinator) Health() []WorkerHealth {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	out := make([]WorkerHealth, 0, len(c.health))
	for addr, h := range c.health {
		out = append(out, WorkerHealth{
			Addr:        addr,
			InFlight:    h.inflight.Load(),
			Remote:      h.remote.Load(),
			Failures:    h.failures.Load(),
			Hedges:      h.hedges.Load(),
			Retries:     h.retries.Load(),
			LatencyEWMA: time.Duration(h.ewmaNs.Load()),
			AllocBytes:  h.allocBytes.Load(),
			Breaker:     h.breaker.State().String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Set returns the coordinator's worker registry (grown by /v3/shards
// self-registration).
func (c *Coordinator) Set() *Set { return c.set }

// Solves returns the number of queries executed through the coordinator.
func (c *Coordinator) Solves() int64 { return c.solves.Load() }

// Routable reports whether q would actually be distributed: a core-exact
// query that has not opted out (Shards < 0), on a coordinator whose own
// worker set is non-empty. The engine consults it before choosing the
// coordinator over the in-process Solver.
//
// The set-gate is a hardening boundary, not just a default: Query.
// ShardAddrs arrives from untrusted API clients, and honoring it on a
// server whose operator never enabled sharding would let any caller
// make the server dial arbitrary URLs (and ship vertex sets to them).
// Only once the operator opted in — `-shards`, or a worker registering —
// may a query redirect the fan-out.
func (c *Coordinator) Routable(q dsd.Query) bool {
	nq, err := q.Normalized()
	if err != nil || nq.Algo != dsd.AlgoCoreExact || nq.Shards < 0 {
		return false
	}
	// Gap-budgeted queries stay on the in-process engine: the early-stop
	// decision reads the shared floor mid-search, and rebroadcast lag
	// would make the certificate depend on network timing. Deadlines are
	// fine — the coordinator owns the clock and workers never see it.
	if nq.Gap > 0 {
		return false
	}
	return c.set.Len() > 0
}

// shardsFor resolves the worker set one query fans across.
func (c *Coordinator) shardsFor(q dsd.Query) []string {
	addrs := q.ShardAddrs
	if len(addrs) == 0 {
		addrs = c.set.List()
	} else {
		norm := make([]string, 0, len(addrs))
		for _, a := range addrs {
			if a = normalizeAddr(a); a != "" {
				norm = append(norm, a)
			}
		}
		addrs = norm
	}
	if q.Shards > 0 && len(addrs) > q.Shards {
		addrs = addrs[:q.Shards]
	}
	return addrs
}

// shardStats accumulates the per-query counters the merged Result's
// Stats report.
type shardStats struct {
	remote    atomic.Int64
	fallbacks atomic.Int64
	hedges    atomic.Int64

	mu         sync.Mutex
	flowSolves int
	flowTime   time.Duration
}

func (st *shardStats) addSearch(flow int, flowT time.Duration) {
	st.mu.Lock()
	st.flowSolves += flow
	st.flowTime += flowT
	st.mu.Unlock()
}

// Solve answers q (which must be routable to core-exact) on the graph
// registered under graphName, distributing the component searches. The
// returned density is bit-identical to the in-process engines' — the
// merged witness is re-certified against the local graph, and every
// bound that crosses the wire is the exact density of a real subgraph.
func (c *Coordinator) Solve(ctx context.Context, graphName string, q dsd.Query) (*dsd.Result, error) {
	return c.solve(ctx, graphName, q, nil)
}

// SolveObserved is Solve as a refinement stream: sink receives a
// certified Answer when the location phase installs its interval
// (StagePlan), whenever a shard's merged bound report tightens it
// (StageShard — the coordinator's cell rebroadcasts, surfaced as
// events), and finally the terminal answer (StageFinal). The returned
// result is bit-identical to Solve's — observation only reads the
// merge cell, it never feeds it. sink may be called from merge-cell
// notification goroutines until shortly after SolveObserved returns;
// callers needing a hard cutoff must guard their sink.
func (c *Coordinator) SolveObserved(ctx context.Context, graphName string, q dsd.Query, sink func(dsd.Answer)) (*dsd.Result, error) {
	return c.solve(ctx, graphName, q, planner.NewEmitter(sink))
}

func (c *Coordinator) solve(ctx context.Context, graphName string, q dsd.Query, em *planner.Emitter) (*dsd.Result, error) {
	start := time.Now()
	solver, ok := c.src.SolverFor(graphName)
	if !ok {
		return nil, fmt.Errorf("shard: unknown graph %q", graphName)
	}
	nq, err := q.Normalized()
	if err != nil {
		return nil, err
	}
	if nq.Algo != dsd.AlgoCoreExact {
		return nil, fmt.Errorf("shard: only %s queries distribute (got %s)", dsd.AlgoCoreExact, nq.Algo)
	}
	c.solves.Add(1)

	// Root the distributed run's trace (no-ops when ctx is untraced):
	// location-phase spans and one dispatch span per component attach
	// under it, and adopted worker-side spans stitch into the same tree.
	tr, parent := obs.FromContext(ctx)
	sp := tr.Start(obs.SpanSolve, parent)
	if sp != nil {
		sp.SetAttr("algo", string(dsd.AlgoCoreExact))
		sp.SetAttr("sharded", "true")
		ctx = obs.WithSpan(ctx, tr, sp)
		defer sp.End()
	}
	attachTrace := func(res *dsd.Result, err error) (*dsd.Result, error) {
		if err == nil && tr != nil {
			sp.End()
			res.Stats.Trace = tr.Snapshot()
		}
		return res, err
	}

	// The degradation budget is coordinator-owned: component searches run
	// under dctx, and when it expires the partially-merged cell plus the
	// per-component upper slots assemble a certified interval instead of
	// an error. Planning runs under dctx too — but a deadline that fires
	// before any component finishes certifies nothing, and surfaces as
	// the plain ctx error it is.
	dctx := ctx
	if nq.Deadline > 0 {
		var dcancel context.CancelFunc
		dctx, dcancel = resilience.WallDeadline(ctx, start.Add(nq.Deadline))
		defer dcancel()
	}

	// One version answers the whole query: the plan, every local search
	// and the final certificate read the snapshot, so mutations that
	// evict the query's version from the retention window mid-query
	// cannot fail it.
	snap, err := solver.At(nq.Version)
	if err != nil {
		return nil, err
	}
	plan, err := snap.PlanComponents(dctx, nq)
	if err != nil {
		return nil, err
	}
	st := &shardStats{}
	if plan.Empty {
		res, err := c.finish(snap, nq, nil, plan, st, start)
		if err == nil && em != nil {
			em.Final(res)
		}
		return attachTrace(res, err)
	}

	addrs := c.shardsFor(nq)
	cell := newMergeCell(ratio(plan.LowerNum, plan.LowerDen), plan.Witness)
	if em != nil {
		// The plan's certified interval is the stream's first event; from
		// here every merged bound report — local search or remote shard —
		// surfaces as a StageShard tightening via the cell's rebroadcast
		// fan-out (the same mechanism that re-arms sibling searches).
		em.Install(ratio(plan.LowerNum, plan.LowerDen), plan.Witness, plan.Uppers, planner.StagePlan)
		obsSub := cell.subscribe(func(rational.R) {
			d, w := cell.snapshot()
			em.Improve(d, w, planner.StageShard)
		})
		defer cell.unsubscribe(obsSub)
	}
	// Workers answer one component at a time; the shard knobs, the
	// in-process Workers pool and the degradation budget are the
	// coordinator's concern, so the shipped query carries none of them —
	// a worker must never degrade independently.
	wq := nq
	wq.Shards = 0
	wq.ShardAddrs = nil
	wq.Workers = 0
	wq.Deadline = 0
	wq.Gap = 0
	wireQ := wire.FromQuery(wq)
	runID := fmt.Sprintf("%s-%d", c.token, c.seq.Add(1))

	n := len(plan.Components)
	lanes := len(addrs)
	if lanes == 0 {
		lanes = 1
	}
	if lanes > n {
		lanes = n
	}
	// uppers[i] starts at the plan's core-number bound for component i —
	// sound before any work happens — and is lowered to the search's own
	// certificate when the component finishes. Each index is written by
	// exactly one lane and read only after wg.Wait.
	uppers := append([]float64(nil), plan.Uppers...)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	for li := 0; li < lanes; li++ {
		addr := ""
		if len(addrs) > 0 {
			addr = addrs[li%len(addrs)]
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			remoteFails := 0
			for {
				i := int(next.Add(1)) - 1
				if i >= n || dctx.Err() != nil {
					return
				}
				useAddr := addr
				if remoteFails >= c.failLimit {
					// The shard burned its failure budget for this query:
					// its lane keeps draining components locally.
					useAddr = ""
				}
				failed, err := c.runComponent(dctx, snap, graphName, wireQ, nq, plan, i, runID, useAddr, cell, st, uppers, em)
				errs[i] = err
				if failed {
					remoteFails++
				}
			}
		}(addr)
	}
	wg.Wait()
	// Cancellation first: lanes drop unprocessed components on a dead
	// ctx, so a partially-merged cell must never leave as an answer.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadlined := nq.Deadline > 0 && dctx.Err() != nil
	if !deadlined {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	_, witness := cell.snapshot()
	res, err := c.finish(snap, nq, witness, plan, st, start)
	if err != nil {
		return nil, err
	}
	if deadlined {
		// The deadline fired: the merged witness is still an exact density
		// of a real subgraph (the lower bound), and every unfinished
		// component's slot still holds a sound upper bound. If no slot
		// exceeds the achieved density, the run proved optimality anyway
		// and the result stays exact.
		upper := res.Density.Float()
		for _, u := range uppers {
			if u > upper {
				upper = u
			}
		}
		if res.Density.CmpFloat(upper) < 0 {
			res.Degraded = true
			res.Bound = dsd.Bound{Lower: res.Density, Upper: upper}
		}
	}
	if em != nil {
		em.Final(res)
	}
	return attachTrace(res, nil)
}

// finish re-certifies the winning witness against the local graph and
// stamps the merged stats.
func (c *Coordinator) finish(snap *dsd.Snapshot, nq dsd.Query, witness []int32, plan *dsd.ComponentPlan, st *shardStats, start time.Time) (*dsd.Result, error) {
	res, err := snap.EvaluateWitness(nq, witness)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	res.Stats.Iterations = st.flowSolves
	res.Stats.FlowTime = st.flowTime
	st.mu.Unlock()
	res.Stats.Decompose = plan.Decompose
	res.Stats.ReusedDecomposition = plan.ReusedDecomposition
	res.Stats.ShardComponents = len(plan.Components)
	res.Stats.ShardRemote = int(st.remote.Load())
	res.Stats.ShardFallbacks = int(st.fallbacks.Load())
	res.Stats.ShardHedges = int(st.hedges.Load())
	res.Stats.Total = time.Since(start)
	return res, nil
}

// answer is one component attempt's outcome (remote or local).
type answer struct {
	d     rational.R
	w     []int32
	upper float64
	flow  int
	flowT time.Duration

	remote bool
	err    error
}

// runComponent executes one plan component: remotely on addr when
// non-empty (with bound rebroadcasts, straggler hedging, and local
// fallback on failure), locally otherwise. It reports whether the
// remote attempt failed — the lane's failure accounting — and the
// component's terminal error, which is nil whenever any attempt
// succeeded.
func (c *Coordinator) runComponent(ctx context.Context, snap *dsd.Snapshot, graphName string,
	wireQ wire.Query, nq dsd.Query, plan *dsd.ComponentPlan, i int, runID, addr string,
	cell *mergeCell, st *shardStats, uppers []float64, em *planner.Emitter) (bool, error) {
	comp := plan.Components[i]
	// Breaker gate before anything is spent on the worker: an open
	// breaker means its recent failures already burned real time, so the
	// component runs locally without paying another connect timeout. Not
	// counted as a lane failure — the breaker's cooldown, not the lane's
	// failure budget, decides when the worker is probed again.
	if addr != "" && !c.healthFor(addr).breaker.Allow() {
		c.metrics.Counter("dsd_shard_breaker_open_total",
			"Components routed to local execution because the worker's breaker was open.",
			"worker", addr).Inc()
		addr = ""
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One dispatch span per component: the coordinator's side of the
	// stitched tree. Local attempts trace under it through rctx; remote
	// attempts carry (trace id, dispatch span id) on the wire so the
	// worker parents its subtree here.
	tr, parent := obs.FromContext(ctx)
	dsp := tr.Start(obs.SpanDispatch, parent)
	if dsp != nil {
		dsp.SetInt("component", int64(i))
		dsp.SetInt("size", int64(len(comp)))
		if addr != "" {
			dsp.SetAttr("shard", addr)
		}
		rctx = obs.WithSpan(rctx, tr, dsp)
		defer dsp.End()
	}
	ch := make(chan answer, 2)

	launchLocal := func() {
		go func() {
			b := cell.bound()
			floor := dsd.NewComponentFloor(b.Num, b.Den)
			// Later sibling improvements keep tightening the local search.
			fsub := cell.subscribe(func(d rational.R) { floor.Raise(d.Num, d.Den) })
			defer cell.unsubscribe(fsub)
			res, err := snap.SolveComponent(rctx, nq, comp, plan.KLocate, floor)
			if err != nil {
				ch <- answer{err: err}
				return
			}
			ch <- answer{
				d:     ratio(res.DensityNum, res.DensityDen),
				w:     res.Witness,
				upper: res.Upper,
				flow:  res.FlowSolves,
				flowT: res.FlowTime,
			}
		}()
	}
	// settle lowers the component's upper slot to the finished search's
	// own certificate. Guarded against zero: an answer that carries no
	// certificate (an older worker) must not erase the plan's bound —
	// a 0 upper would unsoundly prove the whole query exact.
	settle := func(a answer) {
		if a.upper > 0 {
			uppers[i] = a.upper
			if em != nil {
				// The emitter holds its own per-component array (installed
				// from the plan), so observing the settle is race-free even
				// though uppers[i] itself is lane-local until wg.Wait.
				em.TightenComp(i, a.upper, planner.StageShard)
			}
		}
	}

	if addr == "" {
		launchLocal()
		select {
		case a := <-ch:
			if a.err != nil {
				return false, a.err
			}
			settle(a)
			c.merge(snap, nq, a, -1, cell, st)
			return false, nil
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}

	searchID := fmt.Sprintf("%s-c%d", runID, i)
	// Subscribe before reading the floor for the request, so no
	// improvement can slip between the two: a duplicate rebroadcast is
	// harmless (Raise is monotone), a missed one costs pruning.
	sub := cell.subscribe(func(d rational.R) {
		bctx, bcancel := context.WithTimeout(context.Background(), c.boundTimeout)
		defer bcancel()
		c.client.Bound(bctx, addr, wire.BoundRequest{SearchID: searchID, FloorNum: d.Num, FloorDen: d.Den})
	})
	defer cell.unsubscribe(sub)

	health := c.healthFor(addr)
	go func() {
		health.inflight.Add(1)
		c.metrics.Gauge("dsd_shard_inflight",
			"Components currently in flight on the shard worker.",
			"worker", addr).Set(float64(health.inflight.Load()))
		defer func() {
			health.inflight.Add(-1)
			c.metrics.Gauge("dsd_shard_inflight",
				"Components currently in flight on the shard worker.",
				"worker", addr).Set(float64(health.inflight.Load()))
		}()
		rstart := time.Now()
		// Retryable (503) attempts are retried with jittered exponential
		// backoff — honoring the worker's own Retry-After as a floor —
		// before the component falls back to local execution. Each attempt
		// re-reads the shared floor, so a retry benefits from every bound
		// a sibling proved during the wait.
		var (
			resp *wire.ComponentResponse
			err  error
		)
		for attempt := 0; ; attempt++ {
			b := cell.bound()
			cctx := rctx
			var ccancel context.CancelFunc
			if c.compTimeout > 0 {
				cctx, ccancel = context.WithTimeout(rctx, c.compTimeout)
			}
			resp, err = c.client.Component(cctx, addr, wire.ComponentRequest{
				Graph:      graphName,
				SearchID:   searchID,
				Query:      wireQ,
				Component:  comp,
				KLocate:    plan.KLocate,
				FloorNum:   b.Num,
				FloorDen:   b.Den,
				TraceID:    tr.ID(),
				ParentSpan: dsp.ID(),
			})
			if ccancel != nil {
				ccancel()
			}
			if err == nil {
				break
			}
			var se *StatusError
			if attempt >= c.retries || rctx.Err() != nil ||
				!errors.As(err, &se) || !se.Retryable() {
				break
			}
			health.retries.Add(1)
			c.metrics.Counter("dsd_retries_total",
				"Retryable remote component attempts retried with backoff.",
				"worker", addr).Inc()
			select {
			case <-time.After(c.backoff.Delay(attempt, se.RetryAfter)):
			case <-rctx.Done():
			}
		}
		if err != nil {
			health.failures.Add(1)
			c.metrics.Counter("dsd_shard_failures_total",
				"Remote component attempts that failed (fell back to local execution).",
				"worker", addr).Inc()
			// A failure caused by our own cancellation (query done, hedge
			// won) says nothing about the worker — release any half-open
			// probe without penalty. A real failure feeds the breaker.
			if rctx.Err() != nil {
				health.breaker.ReleaseProbe()
			} else {
				health.breaker.Report(false)
			}
			ch <- answer{remote: true, err: err}
			return
		}
		health.breaker.Report(true)
		health.remote.Add(1)
		health.observe(time.Since(rstart))
		health.allocBytes.Add(resp.AllocBytes)
		c.metrics.Counter("dsd_shard_remote_total",
			"Components answered remotely by the shard worker.",
			"worker", addr).Inc()
		c.metrics.Counter("dsd_shard_alloc_bytes_total",
			"Worker-reported heap bytes allocated answering components.",
			"worker", addr).Add(resp.AllocBytes)
		c.metrics.Gauge("dsd_shard_latency_ewma_seconds",
			"EWMA of the worker's component round-trip latency.",
			"worker", addr).Set(time.Duration(health.ewmaNs.Load()).Seconds())
		// Stitch the worker's phase spans under this dispatch span.
		tr.Adopt(resp.Spans, addr)
		ch <- answer{
			remote: true,
			d:      ratio(resp.DensityNum, resp.DensityDen),
			w:      resp.Witness,
			upper:  resp.Upper,
			flow:   resp.FlowSolves,
			flowT:  time.Duration(resp.FlowMs * float64(time.Millisecond)),
		}
	}()

	var hedgeCh <-chan time.Time
	if c.hedge > 0 {
		t := time.NewTimer(c.hedge)
		defer t.Stop()
		hedgeCh = t.C
	}
	remoteFailed := false
	localRunning := false
	pending := 1
	for {
		select {
		case a := <-ch:
			pending--
			if a.err == nil {
				settle(a)
				c.merge(snap, nq, a, sub, cell, st)
				if a.remote {
					st.remote.Add(1)
				}
				return remoteFailed, nil
			}
			if a.remote {
				remoteFailed = true
				if ctx.Err() != nil {
					return true, ctx.Err()
				}
				if !localRunning {
					// Dead worker → the component re-executes here; the
					// query never loses it.
					st.fallbacks.Add(1)
					c.metrics.Counter("dsd_shard_fallbacks_total",
						"Failed remote components re-executed locally.",
						"worker", addr).Inc()
					launchLocal()
					localRunning = true
					pending++
				}
				continue
			}
			// The local attempt failed. Outside cancellation that means a
			// real error; surface it unless the remote might still answer.
			if ctx.Err() != nil {
				return remoteFailed, ctx.Err()
			}
			if pending == 0 {
				return remoteFailed, a.err
			}
		case <-hedgeCh:
			hedgeCh = nil
			if !localRunning {
				// Straggler hedge: the remote search keeps running, but a
				// local duplicate races it from the current (higher) floor;
				// first result wins and cancels the other.
				st.hedges.Add(1)
				health.hedges.Add(1)
				c.metrics.Counter("dsd_shard_hedges_total",
					"Straggler hedges launched against the shard worker.",
					"worker", addr).Inc()
				launchLocal()
				localRunning = true
				pending++
			}
		case <-ctx.Done():
			return remoteFailed, ctx.Err()
		}
	}
}

// merge folds one successful component answer into the cell and stats.
// A remote witness's density is re-certified against the local graph
// before it can raise the shared bound: wire-carried numbers are never
// trusted to prune sibling searches.
func (c *Coordinator) merge(snap *dsd.Snapshot, nq dsd.Query, a answer, self int, cell *mergeCell, st *shardStats) {
	st.addSearch(a.flow, a.flowT)
	if len(a.w) == 0 {
		return
	}
	d := a.d
	if a.remote {
		if ev, err := snap.EvaluateWitness(nq, a.w); err == nil {
			d = ev.Density
		} else {
			return
		}
	}
	cell.improve(d, a.w, self)
}
