package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	dsd "repro"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/wire"
)

// bowtieEdges is two triangles sharing vertex 2, plus a pendant path —
// enough structure that different algorithms have real work to do.
const bowtieEdges = "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n4 5\n5 6\n"

func newTestServer(t *testing.T) (*service.Server, *client.Client) {
	t.Helper()
	srv := service.NewServer(service.NewRegistry(), service.Config{Workers: 4, Timeout: time.Minute})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL, ts.Client())
}

// TestServerEndToEnd is the acceptance test: it registers a graph over
// HTTP, fires parallel mixed-algorithm queries (run under -race), checks
// every answer against the same query on a library Solver, and asserts that
// identical in-flight queries were computed exactly once.
func TestServerEndToEnd(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := c.RegisterEdges(ctx, "bowtie", bowtieEdges)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "bowtie" || info.N != 7 || info.M != 8 {
		t.Fatalf("registered info wrong: %+v", info)
	}

	// The mixed-algorithm query set: 8 distinct (pattern, algo) keys.
	queries := []wire.Query{
		{Pattern: "edge", Algo: "exact"},
		{Pattern: "edge", Algo: "peel"},
		{Pattern: "triangle", Algo: "core-exact"},
		{Pattern: "triangle", Algo: "inc"},
		{Pattern: "triangle", Algo: "core-app"},
		{Pattern: "diamond", Algo: "exact"},
		{Pattern: "2-star", Algo: "peel"},
		{Pattern: "3-clique", Algo: "nucleus"},
	}
	g, err := dsd.FromEdgeList(strings.NewReader(bowtieEdges))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*wire.Result, len(queries))
	for _, q := range queries {
		dq, err := q.ToQuery()
		if err != nil {
			t.Fatal(err)
		}
		res, err := dsd.NewSolver(g).Solve(ctx, dq)
		if err != nil {
			t.Fatal(err)
		}
		want[q.Pattern+"/"+q.Algo] = wire.FromResult(res)
	}

	// Fire every query repeat×, all in parallel: ≥ 8 concurrent mixed
	// queries plus identical in-flight duplicates of each.
	const repeat = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*repeat)
	for _, q := range queries {
		for j := 0; j < repeat; j++ {
			wg.Add(1)
			go func(q wire.Query) {
				defer wg.Done()
				resp, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie", Query: q})
				if err != nil {
					errs <- err
					return
				}
				w := want[q.Pattern+"/"+q.Algo]
				got := resp.Result
				if got == nil {
					errs <- fmt.Errorf("%s/%s: nil result", q.Pattern, q.Algo)
					return
				}
				if got.Mu != w.Mu || got.DensityNum != w.DensityNum || got.DensityDen != w.DensityDen ||
					fmt.Sprint(got.Vertices) != fmt.Sprint(w.Vertices) {
					errs <- fmt.Errorf("%s/%s: got %+v, want %+v", q.Pattern, q.Algo, got, w)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Identical in-flight queries computed exactly once per distinct key.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Computes != int64(len(queries)) {
		t.Errorf("computes = %d, want %d (one per distinct key)", stats.Computes, len(queries))
	}
	if stats.Queries != int64(len(queries)*repeat) {
		t.Errorf("queries = %d, want %d", stats.Queries, len(queries)*repeat)
	}
	if stats.CacheHits != stats.Queries-stats.Computes {
		t.Errorf("cache hits = %d, want %d", stats.CacheHits, stats.Queries-stats.Computes)
	}
	if stats.Graphs != 1 || stats.Errors != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if got := srv.Engine().Stats(); !reflect.DeepEqual(got, *stats) {
		t.Errorf("client stats %+v != engine stats %+v", *stats, got)
	}

	infos, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "bowtie" {
		t.Fatalf("graph list wrong: %+v", infos)
	}
}

func TestServerErrors(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.RegisterEdges(ctx, "g", bowtieEdges); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		req  wire.QueryV2Request
		code string
	}{
		{"unknown graph", wire.QueryV2Request{Graph: "nope", Query: wire.Query{Pattern: "edge"}}, "404"},
		{"unknown pattern", wire.QueryV2Request{Graph: "g", Query: wire.Query{Pattern: "heptagon"}}, "400"},
		{"unknown algo", wire.QueryV2Request{Graph: "g", Query: wire.Query{Pattern: "edge", Algo: "bogus"}}, "400"},
		{"missing fields", wire.QueryV2Request{}, "400"},
	} {
		_, err := c.QueryV2(ctx, tc.req)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "status "+tc.code) {
			t.Fatalf("%s: want status %s, got %v", tc.name, tc.code, err)
		}
	}

	// Duplicate registration conflicts.
	if _, err := c.RegisterEdges(ctx, "g", bowtieEdges); err == nil || !strings.Contains(err.Error(), "status 409") {
		t.Fatalf("duplicate registration: %v", err)
	}
	// Malformed edge list.
	if _, err := c.RegisterEdges(ctx, "bad", "0 x\n"); err == nil {
		t.Fatal("malformed edge list accepted")
	}
	// Path registration is disabled unless opted in.
	if _, err := c.RegisterFile(ctx, "p", "/etc/hostname"); err == nil || !strings.Contains(err.Error(), "status 403") {
		t.Fatalf("path registration not forbidden: %v", err)
	}
}

func TestServerPathRegistrationOptIn(t *testing.T) {
	srv := service.NewServer(service.NewRegistry(), service.Config{Workers: 1})
	srv.AllowPathRegistration()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(bowtieEdges), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := c.RegisterFile(context.Background(), "disk", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 7 {
		t.Fatalf("info = %+v", info)
	}
}

func TestServerMethodAndBodyValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Wrong method on /v2/query.
	resp, err := http.Get(ts.URL + "/v2/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/query status = %d", resp.StatusCode)
	}

	// Unknown fields are rejected.
	resp, err = http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(`{"grph":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", resp.StatusCode)
	}

	// Oversized bodies are cut off instead of buffered.
	resp, err = http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(make([]byte, 64<<20+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status = %d", resp.StatusCode)
	}
}
