package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestRunTriangleQuery(t *testing.T) {
	path := writeTempGraph(t)
	var out bytes.Buffer
	err := run([]string{"-graph", path, "-motif", "triangle", "-algo", "core-exact"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "n=5 m=6") {
		t.Fatalf("missing graph line: %q", got)
	}
	if !strings.Contains(got, "|V|=5") || !strings.Contains(got, "ρ=0.4") {
		t.Fatalf("unexpected answer: %q", got)
	}
}

func TestRunPrintsVertices(t *testing.T) {
	path := writeTempGraph(t)
	var out bytes.Buffer
	if err := run([]string{"-graph", path, "-print"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\n2\n") {
		t.Fatalf("vertex list missing: %q", out.String())
	}
}

func TestRunJSON(t *testing.T) {
	path := writeTempGraph(t)
	var out bytes.Buffer
	err := run([]string{"-graph", path, "-motif", "triangle", "-algo", "core-exact", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The output is the service API's v2 encoding: a wire.QueryV2Response.
	var resp wire.QueryV2Response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("output is not a wire.QueryV2Response: %v\n%s", err, out.String())
	}
	if resp.Graph != path || resp.Query.Pattern != "triangle" || resp.Query.Algo != "core-exact" {
		t.Fatalf("query echo wrong: %+v", resp)
	}
	if resp.Stats == nil {
		t.Fatalf("missing stats: %+v", resp)
	}
	if resp.Result == nil || resp.Result.Size != 5 || resp.Result.Mu != 2 ||
		resp.Result.DensityNum != 2 || resp.Result.DensityDen != 5 {
		t.Fatalf("result wrong: %+v", resp.Result)
	}
}

// TestRunIterativeFlag: every -iterative setting (default, off, explicit
// budget) must answer the same query identically and run no Greed++ —
// the knob tunes only the stream's Greed++ rung.
func TestRunIterativeFlag(t *testing.T) {
	path := writeTempGraph(t)
	for _, iter := range []string{"0", "-1", "8"} {
		var out bytes.Buffer
		err := run([]string{"-graph", path, "-motif", "triangle", "-iterative", iter, "-json"}, &out)
		if err != nil {
			t.Fatalf("-iterative %s: %v", iter, err)
		}
		var resp wire.QueryV2Response
		if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
			t.Fatalf("-iterative %s: %v", iter, err)
		}
		if resp.Result.DensityNum != 2 || resp.Result.DensityDen != 5 {
			t.Fatalf("-iterative %s: density %d/%d, want 2/5", iter, resp.Result.DensityNum, resp.Result.DensityDen)
		}
		if resp.Result.PreSolveIters != 0 {
			t.Fatalf("-iterative %s ran %d pre-solve iterations", iter, resp.Result.PreSolveIters)
		}
	}
}

// TestRunVariantFlags drives the problem variants through the shared
// Query builder: the algorithm is inferred from the variant flag alone.
func TestRunVariantFlags(t *testing.T) {
	path := writeTempGraph(t)
	cases := []struct {
		args []string
		algo string
	}{
		{[]string{"-anchors", "3"}, "anchored"},
		{[]string{"-at-least", "4"}, "at-least"},
		{[]string{"-eps", "0.5"}, "batch-peel"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		args := append([]string{"-graph", path, "-json"}, c.args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var resp wire.QueryV2Response
		if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if resp.Query.Algo != c.algo {
			t.Fatalf("%v: inferred algo %q, want %q", c.args, resp.Query.Algo, c.algo)
		}
		if resp.Result == nil || resp.Result.Size == 0 {
			t.Fatalf("%v: empty result %+v", c.args, resp.Result)
		}
	}
	// Conflicting variant parameters fail at flag assembly, not mid-run.
	var out bytes.Buffer
	if err := run([]string{"-graph", path, "-anchors", "1", "-algo", "peel"}, &out); err == nil {
		t.Fatal("anchors with algo=peel accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing -graph accepted")
	}
	if err := run([]string{"-graph", "/nonexistent/file"}, &out); err == nil {
		t.Fatal("bad path accepted")
	}
	path := writeTempGraph(t)
	if err := run([]string{"-graph", path, "-motif", "heptagon"}, &out); err == nil {
		t.Fatal("bad motif accepted")
	}
	if err := run([]string{"-graph", path, "-algo", "bogus"}, &out); err == nil {
		t.Fatal("bad algo accepted")
	}
}
