package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dsd "repro"
	"repro/internal/obs"
	"repro/internal/service/wire"
)

// Worker is the shard-side half of the v3 protocol: it answers
// ComponentRequests by running the per-component flow search through
// the named graph's Solver — so every component of every query on a hot
// graph reuses one memoized (k,Ψ)-core decomposition — and keeps the
// floors of in-flight searches addressable by SearchID so coordinator
// BoundRequests can tighten them mid-search.
type Worker struct {
	src SolverSource
	// sem bounds concurrent component searches: the coordinator may fan
	// many components at one worker, and an unbounded pile of flow
	// solves would thrash the process.
	sem chan struct{}

	mu     sync.Mutex
	active map[string]*dsd.ComponentFloor

	searches atomic.Int64
	bounds   atomic.Int64
}

// NewWorker returns a worker answering from src, running at most
// GOMAXPROCS component searches at once.
func NewWorker(src SolverSource) *Worker {
	return &Worker{
		src:    src,
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		active: make(map[string]*dsd.ComponentFloor),
	}
}

// Searches returns the number of component searches served.
func (w *Worker) Searches() int64 { return w.searches.Load() }

// Bounds returns the number of bound rebroadcasts received.
func (w *Worker) Bounds() int64 { return w.bounds.Load() }

// register tracks an in-flight search's floor under id ("" disables
// rebroadcasts and registers nothing).
func (w *Worker) register(id string, f *dsd.ComponentFloor) {
	if id == "" {
		return
	}
	w.mu.Lock()
	w.active[id] = f
	w.mu.Unlock()
}

func (w *Worker) unregister(id string) {
	if id == "" {
		return
	}
	w.mu.Lock()
	delete(w.active, id)
	w.mu.Unlock()
}

// floorFor resolves an in-flight search's floor.
func (w *Worker) floorFor(id string) (*dsd.ComponentFloor, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	f, ok := w.active[id]
	return f, ok
}

// HandleComponent is POST /v3/component.
func (w *Worker) HandleComponent(rw http.ResponseWriter, r *http.Request) {
	var req wire.ComponentRequest
	if err := wire.DecodeJSON(rw, r, &req); err != nil {
		wire.WriteError(rw, http.StatusBadRequest, err)
		return
	}
	if req.Graph == "" {
		wire.WriteError(rw, http.StatusBadRequest, fmt.Errorf("graph is required"))
		return
	}
	if len(req.Component) == 0 {
		wire.WriteError(rw, http.StatusBadRequest, fmt.Errorf("component is required"))
		return
	}
	solver, ok := w.src.SolverFor(req.Graph)
	if !ok {
		wire.WriteError(rw, http.StatusNotFound, fmt.Errorf("shard: unknown graph %q", req.Graph))
		return
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		wire.WriteError(rw, http.StatusBadRequest, err)
		return
	}
	// Version check before any work: the coordinator pins queries to a
	// concrete graph version, and this worker's replica may not have seen
	// the same mutations (or may have pruned the version). A 409 tells
	// the coordinator its plan does not apply here; its remote-failure
	// path re-executes the component locally, where the version is held.
	gr := solver.Graph()
	if q.Version != 0 {
		snap, err := solver.At(q.Version)
		if err != nil {
			wire.WriteError(rw, http.StatusConflict,
				fmt.Errorf("shard: graph %q version %d not available on this worker (head %d): %w; falling back to the coordinator's local execution", req.Graph, q.Version, solver.Version(), err))
			return
		}
		gr = snap.Graph()
	}
	// Validate the component against THIS worker's graph before solving:
	// a coordinator holding a different graph under the same name (the
	// documented misconfiguration) or a buggy caller must get a loud 400
	// here, not an index panic deep inside the search.
	n := int32(gr.N())
	for _, v := range req.Component {
		if v < 0 || v >= n {
			wire.WriteError(rw, http.StatusBadRequest,
				fmt.Errorf("shard: component vertex %d outside graph %q (n=%d); do the coordinator and this worker hold the same graph?", v, req.Graph, n))
			return
		}
	}
	floor := dsd.NewComponentFloor(req.FloorNum, req.FloorDen)
	w.register(req.SearchID, floor)
	defer w.unregister(req.SearchID)

	ctx := r.Context()
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		writeRetryable(rw, ctx.Err())
		return
	}
	w.searches.Add(1)
	// Resume the coordinator's trace when the request carries one: the
	// worker's phase spans parent under the coordinator's dispatch span
	// and travel back in the response for adoption. An empty TraceID
	// yields a nil tracer and the search runs untraced.
	wtr := obs.Resume(req.TraceID, req.ParentSpan)
	if wtr != nil {
		ctx = obs.WithSpan(ctx, wtr, nil)
	}
	// Sample the worker's allocation counters around the search so the
	// response carries this component's cost even on untraced requests.
	// The counters are process-wide: concurrent searches on this worker
	// inflate each other's deltas.
	memB0, memO0, memOK := obs.HeapAllocCounters()
	res, err := solver.SolveComponent(ctx, q, req.Component, req.KLocate, floor)
	if err != nil {
		if status := statusForShard(err); status == http.StatusServiceUnavailable {
			writeRetryable(rw, err)
		} else {
			wire.WriteError(rw, status, err)
		}
		return
	}
	resp := wire.ComponentResponse{
		Graph:      req.Graph,
		SearchID:   req.SearchID,
		DensityNum: res.DensityNum,
		DensityDen: res.DensityDen,
		Density:    ratioFloat(res.DensityNum, res.DensityDen),
		Witness:    res.Witness,
		FlowSolves: res.FlowSolves,
		TotalMs:    float64(res.Elapsed) / float64(time.Millisecond),
		FlowMs:     float64(res.FlowTime) / float64(time.Millisecond),
		Upper:      res.Upper,
	}
	if memOK {
		if b1, o1, ok := obs.HeapAllocCounters(); ok {
			if b1 > memB0 {
				resp.AllocBytes = int64(b1 - memB0)
			}
			if o1 > memO0 {
				resp.Allocs = int64(o1 - memO0)
			}
		}
	}
	if snap := wtr.Snapshot(); snap != nil {
		resp.TraceID = snap.TraceID
		resp.Spans = snap.Spans
	}
	wire.WriteJSON(rw, http.StatusOK, resp)
}

// HandleBound is POST /v3/bound. A bound for a search that already
// finished (or never reached this worker) is not an error — the race is
// inherent to rebroadcasting — so the response just reports Active=false.
func (w *Worker) HandleBound(rw http.ResponseWriter, r *http.Request) {
	var req wire.BoundRequest
	if err := wire.DecodeJSON(rw, r, &req); err != nil {
		wire.WriteError(rw, http.StatusBadRequest, err)
		return
	}
	if req.SearchID == "" {
		wire.WriteError(rw, http.StatusBadRequest, fmt.Errorf("search_id is required"))
		return
	}
	w.bounds.Add(1)
	resp := wire.BoundResponse{SearchID: req.SearchID}
	if floor, ok := w.floorFor(req.SearchID); ok {
		resp.Active = true
		resp.Raised = floor.Raise(req.FloorNum, req.FloorDen)
	}
	wire.WriteJSON(rw, http.StatusOK, resp)
}

// Register mounts the worker's endpoints on mux.
func (w *Worker) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v3/component", w.HandleComponent)
	mux.HandleFunc("POST /v3/bound", w.HandleBound)
}

func ratioFloat(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// statusForShard maps component-search errors to HTTP statuses: a
// cancelled/timed-out search is retryable (503), everything else is the
// caller's request (400).
func statusForShard(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// workerRetryAfter is the delay this worker suggests on retryable (503)
// errors: long enough to drain a saturated search semaphore, short
// enough that a coordinator's retry budget survives it.
const workerRetryAfter = 1 * time.Second

// writeRetryable answers a retryable failure: 503 plus a Retry-After
// header the coordinator's backoff policy honors as a floor.
func writeRetryable(rw http.ResponseWriter, err error) {
	rw.Header().Set("Retry-After", fmt.Sprintf("%d", int(workerRetryAfter.Seconds())))
	wire.WriteError(rw, http.StatusServiceUnavailable, err)
}
