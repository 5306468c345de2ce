package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/service/client"
	"repro/internal/service/wire"
)

func writeTempGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	// Bowtie: two triangles sharing vertex 2.
	data := "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNewServerPreloadsGraphs(t *testing.T) {
	path := writeTempGraph(t)
	srv, addr, err := newServer([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-graph", "bowtie=" + path})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:0" {
		t.Fatalf("addr = %q", addr)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	infos, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "bowtie" || infos[0].N != 5 {
		t.Fatalf("preloaded graphs wrong: %+v", infos)
	}
	resp, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie", Query: wire.Query{Pattern: "triangle", Algo: "core-exact"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Size != 5 || resp.Result.Mu != 2 {
		t.Fatalf("query result wrong: %+v", resp.Result)
	}

	// Path registration is off by default for a preloaded server.
	if _, err := c.RegisterFile(ctx, "again", writeTempGraph(t)); err == nil {
		t.Fatal("path registration should be disabled by default")
	}
}

func TestNewServerAllowPaths(t *testing.T) {
	srv, _, err := newServer([]string{"-allow-paths"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	if _, err := c.RegisterFile(context.Background(), "disk", writeTempGraph(t)); err != nil {
		t.Fatal(err)
	}
}

// TestNewServerAlgoIterative: the -algo-iterative flag must reach the
// engine (visible in /v1/stats) and an -algo-iterative -1 server must
// still answer queries with the same density as the default.
func TestNewServerAlgoIterative(t *testing.T) {
	path := writeTempGraph(t)
	srv, _, err := newServer([]string{"-algo-iterative", "-1", "-graph", "bowtie=" + path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AlgoIterative != -1 {
		t.Fatalf("stats.AlgoIterative = %d, want -1", stats.AlgoIterative)
	}
	resp, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie", Query: wire.Query{Pattern: "triangle", Algo: "core-exact"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.DensityNum != 2 || resp.Result.DensityDen != 5 {
		t.Fatalf("density %d/%d, want 2/5", resp.Result.DensityNum, resp.Result.DensityDen)
	}
	if resp.Result.PreSolveIters != 0 {
		t.Fatalf("pre-solver ran (%d iterations) despite -algo-iterative -1", resp.Result.PreSolveIters)
	}
}

// TestObservabilityFlags: /metrics is always on and valid; /debug/pprof/
// is mounted only behind -pprof; bad -log-level/-log-format are flag
// errors, not silent defaults.
func TestObservabilityFlags(t *testing.T) {
	path := writeTempGraph(t)
	srv, _, err := newServer([]string{"-pprof", "-graph", "bowtie=" + path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("-pprof server: GET /debug/pprof/ status = %d", resp.StatusCode)
	}

	// Without -pprof the profiling surface must not exist.
	plain, _, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(plain)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default server: GET /debug/pprof/ status = %d, want 404", resp.StatusCode)
	}

	if _, _, err := newServer([]string{"-log-level", "bogus"}); err == nil {
		t.Fatal("bad -log-level accepted")
	}
	if _, _, err := newServer([]string{"-log-format", "bogus"}); err == nil {
		t.Fatal("bad -log-format accepted")
	}
}

func TestNewServerErrors(t *testing.T) {
	if _, _, err := newServer([]string{"-graph", "missing-equals"}); err == nil {
		t.Fatal("bad -graph spec accepted")
	}
	if _, _, err := newServer([]string{"-graph", "g=/nonexistent/file"}); err == nil {
		t.Fatal("bad graph path accepted")
	}
	if _, _, err := newServer([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunListenError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "256.256.256.256:99999"}, &out); err == nil {
		t.Fatal("bad listen address accepted")
	}
}
