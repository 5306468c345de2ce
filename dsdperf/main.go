// Command dsdperf is the end-to-end benchmark of the densest-subgraph
// system: cold exact solves on the paper's Table-2 stand-ins through the
// library, and an open-loop mixed load against a real dsdd process. It
// checks every answer it measures and prints one JSON result line.
//
//	dsdperf -workload solve-flow -seed 1 -seconds 20 -trace 0 \
//	    -dsdd path/to/dsdd -work work/dir -source <digest>
//
// run.sh builds both binaries from the enclosing source tree and calls
// this with the right paths. -trace 0 prints the end-to-end metrics;
// -trace 1 replays the same work split into the repo's layers and
// prints the per-layer metrics. README.md lists every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_s", "s"},
}

// perLayer are the metrics every traced run prints, on every workload;
// a layer the workload does not exercise reads 0. The first six are
// client-side latencies, too volatile across runs on a small shared
// host to carry a regression bound (see README.md).
var perLayer = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p90_ms", "ms"},
	{"stream_first_p50_ms", "ms"},
	{"stream_final_p50_ms", "ms"},
	{"motif.count_s", "s"},
	{"motif.instances", "count"},
	{"psicore.decompose_s", "s"},
	{"psicore.peel_s", "s"},
	{"core.locate_s", "s"},
	{"core.components", "count"},
	{"core.located_frac", "ratio"},
	{"iterative.presolve_s", "s"},
	{"iterative.iters", "count"},
	{"iterative.skips", "count"},
	{"flow.probe_s", "s"},
	{"flow.probes", "count"},
	{"flow.max_nodes", "count"},
	{"component.self_s", "s"},
	{"solver.mutate_ms", "ms"},
	{"solver.resolve_ms", "ms"},
	{"plan.first_answer_ms", "ms"},
	{"engine.query_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"http.rtt_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.computes", "count"},
	{"service.shed", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.heap_live_mb", "MB"},
	{"unattributed_s", "s"},
	{"trace_overhead", "ratio"},
	{"bench.late_p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dsdd     string // dsdd binary (serve-mixed only)
	work     string // directory for generated inputs
	source   string // digest of the source tree the binaries were built from
}

// outcome is what a workload hands back: the metrics of its mode plus
// the operation counts. A wrong answer is never an outcome — workloads
// return a *wrongAnswer error instead.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	valid     bool // false when the load generator ran too late to trust
	notes     []string
}

// wrongAnswer aborts a run: the program produced an incorrect result.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(config) (*outcome, error){
	"solve-flow":      runSolve,
	"solve-decompose": runSolve,
	"serve-mixed":     runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (solve-flow, solve-decompose, serve-mixed)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: relabels the graphs and drives every random choice")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.dsdd, "dsdd", "", "dsdd binary to serve serve-mixed")
	flag.StringVar(&cfg.work, "work", "", "directory for generated inputs")
	flag.StringVar(&cfg.source, "source", "unknown", "digest of the source tree, for the result stamp")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.work == "" {
		fmt.Fprintln(os.Stderr, "dsdperf: need -workload solve-flow|solve-decompose|serve-mixed, -seconds > 0, -trace 0|1 and -work")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dsdperf:", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	var wrong *wrongAnswer
	switch {
	case errors.As(err, &wrong):
		fmt.Fprintln(os.Stderr, "dsdperf:", err)
		printResult(false, 1, 0, nil)
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "dsdperf:", err)
		os.Exit(1)
	}
	printStamp(cfg, out)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dsdperf: workload %s did not produce %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	printResult(true, out.attempted, out.failed, metrics)
}

func printResult(correct bool, attempted, failed int, metrics map[string]any) {
	if metrics == nil {
		metrics = map[string]any{}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}

// printStamp prints the line that ties a result to its machine, its
// code and its inputs.
func printStamp(cfg config, out *outcome) {
	stamp := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"commit":        commit(),
		"source_sha256": cfg.source,
		"valid":         out.valid,
	}
	if len(out.notes) > 0 {
		stamp["notes"] = out.notes
	}
	line, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built at, when the build
// saw one ("+dirty" marks local modifications); "unknown" otherwise —
// source_sha256 then still identifies the code.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
