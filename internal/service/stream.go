// Anytime streaming through the service: Engine.Stream runs a query
// through the same single-flight pipeline Solve uses while relaying the
// leader's certified answers to the caller's sink, and handleStream
// serves it as POST /v1/stream Server-Sent Events.
package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service/wire"
)

// streamRelay decouples the solver's synchronous answer sink from a
// consumer that may block (an HTTP write): a conflating cap-1 channel
// pumped by one goroutine. Its stop() both prevents any further sink
// invocation and waits for an in-flight one to return — necessary
// because a single-flight leader detached from this request's context
// can keep pushing answers after the facade has timed out and Stream
// has returned.
type streamRelay struct {
	mu     sync.Mutex
	closed bool
	ch     chan dsd.Answer
	done   chan struct{}
}

func newStreamRelay(sink func(dsd.Answer)) *streamRelay {
	r := &streamRelay{ch: make(chan dsd.Answer, 1), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for a := range r.ch {
			sink(a)
		}
	}()
	return r
}

// push conflates a into the relay channel (core.Conflate: displacing an
// undelivered older event) unless the relay has stopped. Never blocks on the
// consumer; conflation preserves monotonicity, and with the solver as
// sole producer the terminal event is always the last delivered.
func (r *streamRelay) push(a dsd.Answer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		core.Conflate(r.ch, a)
	}
}

// stop closes the relay and waits for the pump to drain: after it
// returns, the sink is never invoked again.
func (r *streamRelay) stop() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.ch)
	}
	r.mu.Unlock()
	<-r.done
}

// Stream answers q as an anytime refinement stream: sink receives a
// monotone sequence of certified answers ending with one marked Final,
// then Stream returns the same result (and cached flag) Solve would
// have. The computation shares Solve's single-flight cache — a stream
// and a plain query for the same key compute once, and only terminal
// results enter the cache (never intermediates; degraded finals are
// evicted by the cache itself). Only the single-flight leader's events
// stream live: a cache hit or a join of an in-flight computation
// delivers exactly one synthesized final event with cached=true.
//
// sink runs on one relay goroutine at a time and may block briefly (an
// HTTP write); a slow consumer sees conflated intermediates but always
// the terminal event. After Stream returns, sink is never invoked again.
func (e *Engine) Stream(ctx context.Context, graphName string, q dsd.Query, timeout time.Duration, sink func(a dsd.Answer, cached bool)) (res *core.Result, cached bool, err error) {
	e.queries.Add(1)
	e.streams.Add(1)
	qstart := time.Now()
	var first sync.Once
	var delivered atomic.Int64
	events := e.metrics.Counter("dsd_stream_events_total",
		"Certified answers delivered on anytime streams.")
	instrumented := func(a dsd.Answer, fromCache bool) {
		first.Do(func() {
			e.metrics.Histogram("dsd_stream_first_answer_seconds",
				"Time from stream admission to the first certified answer.",
				obs.DefLatencyBuckets).ObserveSeconds(time.Since(qstart))
		})
		events.Inc()
		delivered.Add(1)
		sink(a, fromCache)
	}
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
		e.metrics.Counter("dsd_streams_total",
			"Anytime streaming queries, by outcome.", "outcome", outcome).Inc()
		if err != nil {
			e.errors.Add(1)
		}
	}()
	relay := newStreamRelay(func(a dsd.Answer) { instrumented(a, false) })
	// Intercept the wide event instead of letting solve record it: the
	// stream's event count is only complete after the relay drains (and
	// after a cached final is synthesized below), so exactly one terminal
	// event per stream enters the query log, stage count included.
	var wideEv *obs.QueryEvent
	defer func() {
		if wideEv != nil {
			wideEv.Stream = true
			wideEv.StreamEvents = int(delivered.Load())
			e.recordEvent(wideEv)
		}
	}()
	_, res, cached, err = e.solve(ctx, graphName, q, timeout, relay.push,
		func(ev *obs.QueryEvent) { wideEv = ev })
	relay.stop()
	if err != nil {
		return nil, cached, err
	}
	if cached {
		// The leader's events went to whoever started the computation (or
		// nobody, on a warm cache hit); this caller still gets a complete
		// certified stream — one final event.
		bound := res.Density.Float()
		if res.Degraded {
			bound = res.Bound.Upper
		}
		instrumented(dsd.Answer{
			Density:  res.Density,
			Witness:  res.Vertices,
			Bound:    bound,
			Stage:    dsd.StageMemo,
			Elapsed:  time.Since(qstart),
			Final:    true,
			Degraded: res.Degraded,
		}, true)
	}
	return res, cached, nil
}

// handleStream serves POST /v1/stream: the request is a v2 query body,
// the response a Server-Sent-Event stream of certified refinement
// events — zero or more "answer" events, then exactly one "final" (or
// "error"), each a wire.StreamEvent (the error event a
// wire.ErrorResponse). The response header is deferred until the first
// event exists, so admission sheds and argument errors still answer
// with their proper status (503 + live Retry-After, 400, 404, …)
// instead of a 200 that dies mid-stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryV2Request
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Graph == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("graph is required"))
		return
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	bw := bufio.NewWriter(w)
	started := false
	writeEvent := func(name string, v any) {
		data, merr := json.Marshal(v)
		if merr != nil {
			return
		}
		if !started {
			started = true
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-cache")
			h.Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
		}
		fmt.Fprintf(bw, "event: %s\ndata: %s\n\n", name, data)
		bw.Flush()
		flusher.Flush()
	}
	// Stream serializes sink calls and never invokes the sink after it
	// returns, so the event writes below need no extra locking.
	_, _, err = s.engine.Stream(r.Context(), req.Graph, q,
		time.Duration(req.TimeoutMs)*time.Millisecond, func(a dsd.Answer, cached bool) {
			name := "answer"
			if a.Final {
				name = "final"
			}
			writeEvent(name, wire.FromAnswer(a, cached))
		})
	if err != nil {
		if !started {
			s.writeQueryError(w, err)
			return
		}
		writeEvent("error", wire.ErrorResponse{Error: err.Error()})
	}
}
