package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dsd "repro"
	"repro/internal/obs"
	"repro/internal/service/wire"
)

// TestQueryLogWideEvents: one computed query, one cache hit, and one
// slow query must each leave exactly one wide event in the ring, with
// outcome, key, phase costs, and allocation attribution filled in.
func TestQueryLogWideEvents(t *testing.T) {
	e := newTestEngine(t, Config{
		Workers:        2,
		SlowQuery:      time.Nanosecond, // every computation is "slow"
		QueryLogSample: 1,               // keep everything: deterministic assertions
	})
	ctx := context.Background()
	q := dsd.Query{Algo: dsd.AlgoCoreExact}
	res, _, err := e.Solve(ctx, "bowtie", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := e.Solve(ctx, "bowtie", q, 0); err != nil || !cached {
		t.Fatalf("second solve cached=%v err=%v, want cache hit", cached, err)
	}

	events := e.QueryLog().Snapshot(0)
	if len(events) != 2 {
		t.Fatalf("query log holds %d events, want 2", len(events))
	}
	// Newest first: the cache hit precedes the computation.
	hit, computed := events[0], events[1]
	if hit.Outcome != "cache_hit" || !hit.Cached {
		t.Fatalf("newest event = %+v, want a cache_hit", hit)
	}
	if computed.Outcome != "ok" || computed.Cached {
		t.Fatalf("oldest event = %+v, want a computed ok", computed)
	}
	for _, ev := range events {
		if ev.Graph != "bowtie" || ev.Algo != "core-exact" {
			t.Fatalf("event labels = %s/%s, want bowtie/core-exact", ev.Graph, ev.Algo)
		}
		if ev.QueryKey == "" {
			t.Fatalf("event carries no query key: %+v", ev)
		}
		if ev.DurNs <= 0 {
			t.Fatalf("event duration %d, want > 0", ev.DurNs)
		}
		if ev.Density != res.Density.Float() {
			t.Fatalf("event density %v, want %v", ev.Density, res.Density.Float())
		}
	}
	if !computed.Slow {
		t.Fatal("computed event over the 1ns threshold not flagged slow")
	}
	if hit.Slow {
		t.Fatal("cache hit flagged slow")
	}
	if computed.TraceID == "" || len(computed.Phases) == 0 {
		t.Fatalf("computed event has no trace attribution: %+v", computed)
	}
	var sawSolve bool
	for _, p := range computed.Phases {
		if p.Name == obs.SpanSolve {
			sawSolve = true
		}
		if p.DurNs < 0 || p.Count <= 0 {
			t.Fatalf("phase cost %+v malformed", p)
		}
	}
	if !sawSolve {
		t.Fatalf("phase costs missing the solve phase: %+v", computed.Phases)
	}
	// Alloc attribution is span-granular: the bowtie allocates too little
	// to be sure of swapping out a cached span, so it may read zero.
	// TestQueryLogAllocAttribution checks > 0 where that is certain.
	if computed.AllocBytes < 0 || computed.Allocs < 0 {
		t.Fatalf("computed event alloc attribution = %d bytes / %d objects, want ≥ 0",
			computed.AllocBytes, computed.Allocs)
	}
	seen, retained, sampled := e.QueryLog().Counts()
	if seen != 2 || retained+sampled != 2 {
		t.Fatalf("counts seen=%d retained=%d sampled=%d, want 2 total", seen, retained, sampled)
	}
}

// TestQueryLogAllocAttribution: a computation that allocates far more
// than one span per size class reports a positive allocation in its wide
// event.
func TestQueryLogAllocAttribution(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register("gnm", dsd.GenerateGNM(3000, 30000, 1)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(r, Config{Workers: 1, QueryLogSample: 1})
	if _, _, err := e.Solve(context.Background(), "gnm", dsd.Query{H: 3, Algo: dsd.AlgoCoreExact}, 0); err != nil {
		t.Fatal(err)
	}
	events := e.QueryLog().Snapshot(0)
	if len(events) != 1 {
		t.Fatalf("query log holds %d events, want 1", len(events))
	}
	if ev := events[0]; ev.Cached || ev.AllocBytes < 1<<20 || ev.Allocs <= 0 {
		t.Fatalf("computed event cached=%v, alloc attribution = %d bytes / %d objects, want ≥ 1 MiB and > 0",
			ev.Cached, ev.AllocBytes, ev.Allocs)
	}
}

// TestQueryLogShedEvent: a query shed at admission — which never reaches
// the solver — must still emit a wide event, flagged shed, and shed
// events are always retained regardless of the sampling rate.
func TestQueryLogShedEvent(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	e := newTestEngine(t, Config{
		Workers:    1,
		QueueDepth: 1,
		ComputeHook: func() {
			started <- struct{}{}
			<-block
		},
		QueryLogSample: 1 << 30, // sample essentially nothing routine
	})
	defer close(block)
	ctx := context.Background()
	triangle := patternQuery(t, "triangle", dsd.AlgoCoreExact)
	go e.Solve(ctx, "bowtie", triangle, 0)
	<-started
	go e.Solve(ctx, "bowtie", patternQuery(t, "edge", dsd.AlgoCoreExact), 0)
	deadline := time.Now().Add(5 * time.Second)
	for len(e.admit) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: admit=%d", len(e.admit))
		}
		time.Sleep(time.Millisecond)
	}

	if _, _, err := e.Solve(ctx, "k4", triangle, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated engine returned err=%v, want ErrOverloaded", err)
	}
	events := e.QueryLog().Snapshot(0)
	if len(events) != 1 {
		t.Fatalf("query log holds %d events after the shed, want 1", len(events))
	}
	ev := events[0]
	if ev.Outcome != "shed" || !ev.Shed {
		t.Fatalf("shed event = %+v, want outcome=shed shed=true", ev)
	}
	if ev.Graph != "k4" || ev.Error == "" {
		t.Fatalf("shed event graph=%q error=%q, want k4 with the shed error", ev.Graph, ev.Error)
	}
	if ev.QueryKey == "" {
		t.Fatal("shed event carries no canonical query key")
	}
	if !ev.Retain() {
		t.Fatal("shed event not unconditionally retained")
	}
}

// TestQueryLogStreamTerminalEvent: an anytime stream must contribute
// exactly one terminal wide event, flagged as a stream and carrying the
// count of certified answers actually delivered — including the
// synthesized final of a cached re-stream.
func TestQueryLogStreamTerminalEvent(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, QueryLogSample: 1})
	q := dsd.Query{Algo: dsd.AlgoCoreExact}
	var delivered int
	if _, _, err := e.Stream(context.Background(), "bowtie", q, 0, func(dsd.Answer, bool) {
		delivered++
	}); err != nil {
		t.Fatal(err)
	}
	events := e.QueryLog().Snapshot(0)
	if len(events) != 1 {
		t.Fatalf("query log holds %d events after one stream, want exactly 1", len(events))
	}
	ev := events[0]
	if !ev.Stream {
		t.Fatalf("stream event not flagged: %+v", ev)
	}
	if ev.StreamEvents != delivered || delivered == 0 {
		t.Fatalf("event counts %d stream events, sink saw %d", ev.StreamEvents, delivered)
	}
	if ev.Outcome != "ok" {
		t.Fatalf("stream outcome = %q, want ok", ev.Outcome)
	}

	// A cached re-stream synthesizes one final; its event must say so.
	if _, cached, err := e.Stream(context.Background(), "bowtie", q, 0, func(dsd.Answer, bool) {}); err != nil || !cached {
		t.Fatalf("re-stream cached=%v err=%v, want cache hit", cached, err)
	}
	events = e.QueryLog().Snapshot(0)
	if len(events) != 2 {
		t.Fatalf("query log holds %d events after two streams, want 2", len(events))
	}
	re := events[0]
	if !re.Stream || re.Outcome != "cache_hit" || re.StreamEvents != 1 {
		t.Fatalf("cached re-stream event = %+v, want stream cache_hit with 1 delivered final", re)
	}
}

// TestQueryLogDegradedEvent: a degraded computation's wide event is
// flagged degraded (and therefore always retained). A Gap budget of 4
// stops core-exact on the bowtie before it proves the optimum, with no
// clock involved, so the run degrades on every machine.
func TestQueryLogDegradedEvent(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, QueryLogSample: 1})
	q := dsd.Query{Algo: dsd.AlgoCoreExact, Gap: 4}
	res, _, err := e.Solve(context.Background(), "bowtie", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("gap=%v result not degraded: %+v", q.Gap, res)
	}
	events := e.QueryLog().Snapshot(0)
	if len(events) != 1 {
		t.Fatalf("query log holds %d events, want 1", len(events))
	}
	ev := events[0]
	if !ev.Degraded || ev.Outcome != "ok" {
		t.Fatalf("degraded event = %+v, want degraded ok", ev)
	}
	if !ev.Retain() {
		t.Fatal("degraded event not unconditionally retained")
	}
}

// TestQueryLogDisabled: a negative QueryLog capacity disables the ring;
// queries still work and the accessor's nil-safe surface reports empty.
func TestQueryLogDisabled(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueryLog: -1})
	if _, _, err := e.Solve(context.Background(), "bowtie", dsd.Query{H: 3}, 0); err != nil {
		t.Fatal(err)
	}
	l := e.QueryLog()
	if l != nil {
		t.Fatalf("QueryLog() = %v, want nil when disabled", l)
	}
	if got := l.Snapshot(0); len(got) != 0 {
		t.Fatalf("disabled log snapshot = %v, want empty", got)
	}
	if seen, _, _ := l.Counts(); seen != 0 {
		t.Fatalf("disabled log seen = %d, want 0", seen)
	}
}

// TestHTTPQueryLog drives GET /v1/querylog over a loopback server: the
// response is schema-tagged, newest first, honors ?limit, and rejects a
// malformed limit.
func TestHTTPQueryLog(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("bowtie", bowtie()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{Workers: 2, QueryLogSample: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, pattern := range []string{"edge", "triangle", "triangle"} {
		body := `{"graph":"bowtie","query":{"pattern":"` + pattern + `","algo":"core-exact"}}`
		resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q status %d", pattern, resp.StatusCode)
		}
	}

	get := func(path string) (*http.Response, wire.QueryLogResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out wire.QueryLogResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp, out
	}

	resp, out := get("/v1/querylog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/querylog status %d", resp.StatusCode)
	}
	if out.Schema != wire.QueryLogSchema {
		t.Fatalf("schema = %q, want %q", out.Schema, wire.QueryLogSchema)
	}
	if out.Capacity != obs.DefQueryLogSize || out.SampleEvery != 1 {
		t.Fatalf("capacity=%d sample_every=%d, want %d/1", out.Capacity, out.SampleEvery, obs.DefQueryLogSize)
	}
	if len(out.Events) != 3 || out.Seen != 3 {
		t.Fatalf("events=%d seen=%d, want 3/3", len(out.Events), out.Seen)
	}
	// Newest first: the cache hit of the repeated triangle leads.
	if out.Events[0].Outcome != "cache_hit" {
		t.Fatalf("newest event outcome = %q, want cache_hit", out.Events[0].Outcome)
	}
	for i := 1; i < len(out.Events); i++ {
		if out.Events[i].TimeUnixNs > out.Events[i-1].TimeUnixNs {
			t.Fatalf("events not newest-first at %d", i)
		}
	}

	if _, out := get("/v1/querylog?limit=1"); len(out.Events) != 1 {
		t.Fatalf("limit=1 returned %d events", len(out.Events))
	}
	if resp, _ := get("/v1/querylog?limit=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus limit status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("/v1/querylog?limit=-3"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative limit status %d, want 400", resp.StatusCode)
	}
}
