package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig8exact", "table5", "fig21"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %s: %q", want, out.String())
		}
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping harness run in -short mode")
	}
	var out bytes.Buffer
	// Heavy downscale keeps this a sub-second smoke run.
	if err := run([]string{"-run", "fig12", "-quick", "-div", "8", "-maxh", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CoreExact") || !strings.Contains(out.String(), "done in") {
		t.Fatalf("unexpected output: %q", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunCompare exercises the -compare mode on two handwritten reports,
// including the arity and read-failure errors.
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	oldJSON := `{"schema":"dsd-bench/v1","suite":"perfsuite","workers":4,"cases":[
		{"name":"a","algo":"core-exact","serial_ns_op":100,"serial_iters":30}]}`
	newJSON := `{"schema":"dsd-bench/v1","suite":"perfsuite","workers":4,"flow_solve_reduction":6,"cases":[
		{"name":"a","algo":"core-exact","serial_ns_op":80,"serial_iters":30,
		 "iterative_ns_op":20,"iterative_budget":16,"iterative_flow_solves":5,
		 "iterative_speedup":5,"iterative_match":true}]}`
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a", "flow-solve reduction: 6.00x"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("compare output missing %q: %q", want, out.String())
		}
	}
	if err := run([]string{"-compare", oldPath}, &out); err == nil {
		t.Fatal("-compare with one path accepted")
	}
	if err := run([]string{"-compare", oldPath, filepath.Join(dir, "missing.json")}, &out); err == nil {
		t.Fatal("-compare with missing file accepted")
	}
}

// TestRunValidateMetrics: -validate-metrics accepts a well-formed
// Prometheus text exposition and rejects a malformed one.
func TestRunValidateMetrics(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	goodText := "# HELP dsd_queries_total Queries served.\n# TYPE dsd_queries_total counter\ndsd_queries_total{algo=\"core-exact\"} 3\n"
	if err := os.WriteFile(good, []byte(goodText), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-validate-metrics", good}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "valid Prometheus") {
		t.Fatalf("output: %q", out.String())
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("dsd_queries_total{oops 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate-metrics", bad}, &out); err == nil {
		t.Fatal("malformed exposition accepted")
	}
}

// TestRunTraceOut: -trace-out with the perf suite dumps a dsd-trace/v1
// report whose cases carry phase breakdowns and span trees.
func TestRunTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping traced suite run in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-run", "perfsuite", "-quick", "-div", "8", "-trace-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{`"schema": "dsd-trace/v1"`, `"total_ms"`, `"flow_ms"`, `"trace"`, `"spans"`, `"name": "component"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace dump missing %q", want)
		}
	}
	// -trace-out outside the perf suite is a flag error.
	if err := run([]string{"-run", "fig12", "-trace-out", path}, &out); err == nil {
		t.Fatal("-trace-out accepted outside perfsuite")
	}
}

// TestRunValidateIterativeGate: a report whose iterative arm spends more
// flow solves than the seed engine must fail -validate — the CI gate the
// BENCH_3 artifact answers to.
func TestRunValidateIterativeGate(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	badJSON := `{"schema":"dsd-bench/v1","suite":"perfsuite","workers":4,"cases":[
		{"name":"a","algo":"core-exact","serial_ns_op":100,"serial_iters":3,
		 "iterative_ns_op":20,"iterative_budget":16,"iterative_flow_solves":9,
		 "iterative_speedup":5,"iterative_match":true}]}`
	if err := os.WriteFile(bad, []byte(badJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-validate", bad}, &out)
	if err == nil || !strings.Contains(err.Error(), "flow solves") {
		t.Fatalf("iterative-regression report accepted: %v", err)
	}
}

// TestRunValidateTimingGate: -validate applies the wall-clock gates that
// the unit tests leave out, so a report whose tracing overhead is over 3%
// fails there.
func TestRunValidateTimingGate(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	badJSON := `{"schema":"dsd-bench/v1","suite":"perfsuite","workers":4,"obs_overhead":1.05,"cases":[
		{"name":"a","algo":"core-exact","serial_ns_op":100}]}`
	if err := os.WriteFile(bad, []byte(badJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-validate", bad}, &out)
	if err == nil || !strings.Contains(err.Error(), "obs overhead") {
		t.Fatalf("over-budget tracing overhead accepted: %v", err)
	}
}
