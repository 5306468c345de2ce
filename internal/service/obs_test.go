package service_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dsd "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/wire"
)

// TestMetricsEndpoint: GET /metrics must serve a valid Prometheus text
// exposition carrying the per-graph × per-algorithm query counters and
// latency histograms, with cache hits and errors separated by outcome.
func TestMetricsEndpoint(t *testing.T) {
	srv, c := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()

	if _, err := c.RegisterEdges(ctx, "bowtie", bowtieEdges); err != nil {
		t.Fatal(err)
	}
	q := wire.QueryV2Request{Graph: "bowtie", Query: wire.Query{Pattern: "triangle", Algo: "core-exact"}}
	if _, err := c.QueryV2(ctx, q); err != nil {
		t.Fatal(err)
	}
	// The identical query again: a cache hit, a distinct outcome series.
	if _, err := c.QueryV2(ctx, q); err != nil {
		t.Fatal(err)
	}
	// An unknown graph on both query routes: a 404 to the caller, and an
	// error under the "unknown" label — so hostile names cannot mint
	// series — that /v1/stats and the query log count like any other.
	for _, route := range []string{"/v2/query", "/v1/stream"} {
		resp, err := http.Post(ts.URL+route, "application/json",
			strings.NewReader(`{"graph":"nope","query":{"pattern":"triangle"}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s on an unknown graph: status %d, want 404", route, resp.StatusCode)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 2 {
		t.Errorf("/v1/stats errors = %d, want 2 (one per unknown-graph request)", st.Errors)
	}
	unknown := 0
	for _, ev := range srv.Engine().QueryLog().Snapshot(0) {
		if ev.Graph == "unknown" && ev.Outcome == "error" {
			unknown++
		}
	}
	if unknown != 2 {
		t.Errorf("query log holds %d unknown-graph error events, want 2", unknown)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		`dsd_queries_total{algo="core-exact",graph="bowtie",outcome="ok"} 1`,
		`dsd_queries_total{algo="core-exact",graph="bowtie",outcome="cache_hit"} 1`,
		`dsd_queries_total{algo="unknown",graph="unknown",outcome="error"} 2`,
		`dsd_streams_total{outcome="error"} 1`,
		`dsd_query_seconds_bucket{algo="core-exact",graph="bowtie",le="+Inf"} 2`,
		`dsd_query_seconds_count{algo="core-exact",graph="bowtie"} 2`,
		`dsd_computes_total{algo="core-exact",graph="bowtie"} 1`,
		`dsd_queue_wait_seconds_count 1`,
		`dsd_graphs 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestQueryTrace: a computed query must come back with a span tree —
// rooted at the query span, with the solve and decompose phases under it
// — and a NoTrace engine must attach nothing.
func TestQueryTrace(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.RegisterEdgeList("g", strings.NewReader(bowtieEdges)); err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(reg, service.Config{Workers: 1})
	ctx := context.Background()

	res, cached, err := e.Solve(ctx, "g", dsd.Query{H: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first solve reported cached")
	}
	trace := res.Stats.Trace
	if trace == nil {
		t.Fatal("computed query carries no trace")
	}
	roots := trace.Named(obs.SpanQuery)
	if len(roots) != 1 || roots[0].Parent != "" {
		t.Fatalf("want exactly one parentless query span, got %+v", roots)
	}
	if len(trace.Named(obs.SpanSolve)) != 1 {
		t.Fatalf("want one solve span, spans: %+v", trace.Spans)
	}
	if len(trace.Named(obs.SpanDecompose)) == 0 {
		t.Fatalf("no decompose span recorded, spans: %+v", trace.Spans)
	}
	if len(trace.Named(obs.SpanComponent)) == 0 {
		t.Fatalf("no component span recorded, spans: %+v", trace.Spans)
	}
	totals := trace.PhaseTotals()
	if totals[obs.SpanQuery] <= 0 {
		t.Fatalf("query span has no duration: %+v", totals)
	}

	// NoTrace: the off switch must leave the stats clean.
	reg2 := service.NewRegistry()
	if _, err := reg2.RegisterEdgeList("g", strings.NewReader(bowtieEdges)); err != nil {
		t.Fatal(err)
	}
	e2 := service.NewEngine(reg2, service.Config{Workers: 1, NoTrace: true})
	res2, _, err := e2.Solve(ctx, "g", dsd.Query{H: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Trace != nil {
		t.Fatalf("NoTrace engine attached a trace: %+v", res2.Stats.Trace)
	}
}

// TestSlowQueryLog: a computation at or over the threshold must produce
// one Warn record with the phase breakdown; under the threshold, none.
func TestSlowQueryLog(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := reg.RegisterEdgeList("g", strings.NewReader(bowtieEdges)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, obs.LogOptions{Prefix: "dsdd: "})
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(reg, service.Config{
		Workers:   1,
		Logger:    logger,
		SlowQuery: time.Nanosecond, // every computation is "slow"
	})
	if _, _, err := e.Solve(context.Background(), "g", dsd.Query{H: 3}, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"warn: slow query", "graph=g", "algo=core-exact", "total_ms=", "flow_ms=", "trace_id="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log is missing %q; log:\n%s", want, out)
		}
	}

	// Threshold off: silence.
	reg2 := service.NewRegistry()
	if _, err := reg2.RegisterEdgeList("g", strings.NewReader(bowtieEdges)); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	logger2, err := obs.NewLogger(&buf2, obs.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := service.NewEngine(reg2, service.Config{Workers: 1, Logger: logger2})
	if _, _, err := e2.Solve(context.Background(), "g", dsd.Query{H: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() != 0 {
		t.Fatalf("engine without a threshold logged: %s", buf2.String())
	}
}

// TestStatsAwaitOrphans: the /v1/stats payload carries the library's
// orphaned-computation counter.
func TestStatsAwaitOrphans(t *testing.T) {
	_, c := newTestServer(t)
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.AwaitOrphans != dsd.AwaitOrphans() {
		t.Fatalf("stats.AwaitOrphans = %d, library counter = %d", stats.AwaitOrphans, dsd.AwaitOrphans())
	}
}
