package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dsd "repro"
)

// TestEngineAdmissionShedsWhenSaturated fills the one-worker engine's
// admission capacity (Workers + QueueDepth) with blocked computations
// and asserts the next distinct query is shed with ErrOverloaded while
// the in-flight ones, once unblocked, still answer correctly — load
// shedding must never corrupt admitted work.
func TestEngineAdmissionShedsWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	e := newTestEngine(t, Config{
		Workers:    1,
		QueueDepth: 1, // admission capacity: 1 running + 1 queued
		ComputeHook: func() {
			started <- struct{}{}
			<-block
		},
	})
	type outcome struct {
		res *dsd.Result
		err error
	}
	ctx := context.Background()
	ch := make(chan outcome, 2)
	solve := func(q dsd.Query) {
		res, _, err := e.Solve(ctx, "bowtie", q, 0)
		ch <- outcome{res, err}
	}
	// First query reaches the worker (ComputeHook fires), second sits in
	// the admission queue.
	triangle := patternQuery(t, "triangle", dsd.AlgoCoreExact)
	go solve(triangle)
	<-started
	go solve(patternQuery(t, "edge", dsd.AlgoCoreExact))
	deadline := time.Now().Add(5 * time.Second)
	for len(e.admit) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: admit=%d", len(e.admit))
		}
		time.Sleep(time.Millisecond)
	}

	// Capacity is exhausted: a third distinct query is shed, fast.
	_, _, err := e.Solve(ctx, "k4", triangle, 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated engine returned err=%v, want ErrOverloaded", err)
	}
	if got := e.Stats().Shed; got != 1 {
		t.Fatalf("Stats().Shed = %d, want 1", got)
	}

	// A join of an in-flight computation is never shed: the same query as
	// the blocked leader attaches to it rather than passing admission.
	joined := make(chan outcome, 1)
	go func() {
		res, _, err := e.Solve(ctx, "bowtie", triangle, 0)
		joined <- outcome{res, err}
	}()

	// Unblock: both admitted queries and the joiner complete correctly;
	// later computations see the closed channel and run through.
	close(block)
	want := librarySolve(t, bowtie(), triangle)
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatalf("admitted query %d failed after unblock: %v", i, o.err)
		}
	}
	o := <-joined
	if o.err != nil {
		t.Fatalf("joined query failed: %v", o.err)
	}
	if o.res.Density.Cmp(want.Density) != 0 {
		t.Fatalf("joined query density %v, want %v", o.res.Density, want.Density)
	}
	if got := e.Stats().Shed; got != 1 {
		t.Fatalf("Shed moved to %d after unblock, want still 1", got)
	}

	// And with the queue drained, the shed query is admitted on retry.
	res, _, err := e.Solve(ctx, "k4", triangle, 0)
	if err != nil {
		t.Fatalf("retry of shed query failed: %v", err)
	}
	wantK4 := librarySolve(t, dsd.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}), triangle)
	if res.Density.Cmp(wantK4.Density) != 0 {
		t.Fatalf("retried query density %v, want %v", res.Density, wantK4.Density)
	}
}

// TestHTTPShedReturns503RetryAfter saturates a served engine and asserts
// the HTTP contract of shedding: 503 with a Retry-After header on both
// query endpoints (unary and streamed), while the admitted in-flight
// query still answers 200.
func TestHTTPShedReturns503RetryAfter(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	reg := NewRegistry()
	if _, err := reg.Register("bowtie", bowtie()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{
		Workers:    1,
		QueueDepth: 0, // 0 still bounds: DefaultQueueFactor × workers
		ComputeHook: func() {
			started <- struct{}{}
			<-block
		},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	patterns := []string{"edge", "triangle", "4-clique", "2-star", "diamond"}
	done := make(chan *http.Response, len(patterns))
	// Fill the worker + the whole default queue (1 + 4×1) with distinct
	// blocked queries.
	go func() {
		done <- post("/v2/query", `{"graph":"bowtie","query":{"pattern":"`+patterns[0]+`","algo":"core-exact"}}`)
	}()
	<-started
	e := srv.Engine()
	for _, p := range patterns[1:] {
		p := p
		go func() {
			done <- post("/v2/query", `{"graph":"bowtie","query":{"pattern":"`+p+`","algo":"core-exact"}}`)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(e.admit) < cap(e.admit) {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: admit=%d cap=%d", len(e.admit), cap(e.admit))
		}
		time.Sleep(time.Millisecond)
	}

	for _, path := range []string{"/v2/query", "/v1/stream"} {
		resp := post(path, `{"graph":"bowtie","query":{"pattern":"2-triangle","algo":"core-exact"}}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on saturated server: status %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("%s shed response Retry-After = %q, want \"1\"", path, ra)
		}
		resp.Body.Close()
	}
	if got := e.Stats().Shed; got != 2 {
		t.Fatalf("Stats().Shed = %d, want 2", got)
	}

	close(block)
	for range patterns {
		resp := <-done
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted in-flight query answered %d after unblock, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestUnboundedQueueNeverSheds: a negative QueueDepth disables admission
// control entirely.
func TestUnboundedQueueNeverSheds(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: -1})
	if e.admit != nil {
		t.Fatal("negative QueueDepth still built an admission queue")
	}
}
