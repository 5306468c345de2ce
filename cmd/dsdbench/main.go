// Command dsdbench regenerates the paper's evaluation tables and figures
// on the synthetic dataset stand-ins, and emits the repository's perf
// trajectory artifacts (BENCH_*.json).
//
// Usage:
//
//	dsdbench -list
//	dsdbench -run fig8exact
//	dsdbench -run all [-div 4] [-maxh 4] [-quick]
//	dsdbench -run perfsuite -quick -json [-out BENCH_3.json] [-workers 4] [-iterative 16]
//	dsdbench -run perfsuite -quick -trace-out TRACE.json
//	dsdbench -validate BENCH_3.json
//	dsdbench -compare BENCH_2.json BENCH_3.json
//	dsdbench -validate-metrics metrics.txt
//	dsdbench -validate-querylog querylog.json
//
// With -json (perfsuite only) the suite is emitted as a dsd-bench/v1
// JSON report instead of a table; -validate checks an existing report
// against the schema and exits non-zero on any violation — including the
// iterative-arm gates (density match, flow solves ≤ the seed engine's) —
// which is how CI gates the bench artifact. -compare diffs two trajectory
// artifacts case by case (`make bench-compare`).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/qflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsdbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dsdbench", flag.ContinueOnError)
	var (
		runID       = fs.String("run", "", "experiment id, or \"all\"")
		list        = fs.Bool("list", false, "list experiments")
		div         = fs.Int("div", 1, "extra dataset downscale divisor")
		maxh        = fs.Int("maxh", 6, "largest clique size to sweep")
		quick       = fs.Bool("quick", false, "smoke-test sizes")
		ibudget     = fs.Int64("ibudget", 0, "override the instance budget (0 = default)")
		asJSON      = fs.Bool("json", false, "emit the perf suite as a dsd-bench JSON report (perfsuite only)")
		outPath     = fs.String("out", "", "write the -json report to this file instead of stdout")
		validate    = fs.String("validate", "", "validate a BENCH_*.json report and exit")
		compare     = fs.Bool("compare", false, "diff two BENCH_*.json reports (args: OLD NEW) and exit")
		traceOut    = fs.String("trace-out", "", "run the perf suite's core-exact cases under a live tracer and dump the per-case phase breakdowns as JSON to this file (perfsuite only)")
		valMetrics  = fs.String("validate-metrics", "", "validate a Prometheus text exposition file (e.g. a /metrics scrape) and exit")
		valQuerylog = fs.String("validate-querylog", "", "validate a GET /v1/querylog response file (wide-event query log) and exit")
	)
	// The suite's arm knobs go through the shared Query builder so their
	// semantics (-1 = GOMAXPROCS workers) match the other CLIs.
	b := qflag.New()
	b.Workers(fs, "workers", "perf-suite parallel arm worker count (0 = the reference arm of 4, -1 = GOMAXPROCS)")
	b.Iterative(fs, "iterative", "perf-suite iterative arm Options.Iterative budget, > 0 (0 = the engine default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q, err := b.Query()
	if err != nil {
		return err
	}
	if q.Iterative < 0 {
		// Unlike dsd's -iterative, there is no "off" here: the suite's
		// serial arm already measures the pre-solver disabled, so a
		// negative budget can only be a misread of the flag.
		return fmt.Errorf("-iterative wants a positive budget (the serial arm already measures the pre-solver off)")
	}

	if *valMetrics != "" {
		data, err := os.ReadFile(*valMetrics)
		if err != nil {
			return err
		}
		if err := obs.ValidateExposition(data); err != nil {
			return fmt.Errorf("%s: %w", *valMetrics, err)
		}
		fmt.Fprintf(out, "%s: valid Prometheus text exposition\n", *valMetrics)
		return nil
	}

	if *valQuerylog != "" {
		data, err := os.ReadFile(*valQuerylog)
		if err != nil {
			return err
		}
		if err := expt.ValidateQueryLog(data); err != nil {
			return fmt.Errorf("%s: %w", *valQuerylog, err)
		}
		fmt.Fprintf(out, "%s: valid query-log response\n", *valQuerylog)
		return nil
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			return err
		}
		if err := expt.ValidateBenchReport(data); err != nil {
			return fmt.Errorf("%s: %w", *validate, err)
		}
		if err := expt.ValidateBenchTimings(data); err != nil {
			return fmt.Errorf("%s: %w", *validate, err)
		}
		fmt.Fprintf(out, "%s: valid %s report\n", *validate, expt.BenchSchema)
		return nil
	}

	if *compare {
		rest := fs.Args()
		if len(rest) != 2 {
			return fmt.Errorf("-compare wants exactly two report paths, got %d", len(rest))
		}
		oldData, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		newData, err := os.ReadFile(rest[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s → %s\n", rest[0], rest[1])
		return expt.CompareBenchReports(out, oldData, newData)
	}

	if *list || *runID == "" {
		for _, e := range expt.All() {
			fmt.Fprintf(out, "%-10s %s\n", e.ID, e.Title)
		}
		if *runID == "" {
			return nil
		}
	}

	cfg := expt.DefaultConfig(out)
	if *quick {
		cfg = expt.QuickConfig(out)
	}
	cfg.Div *= *div
	if *maxh < cfg.MaxH {
		cfg.MaxH = *maxh
	}
	if *ibudget > 0 {
		cfg.InstanceBudget = *ibudget
	}
	cfg.Workers = q.Workers
	cfg.Iterative = q.Iterative

	if *traceOut != "" {
		if *runID != "perfsuite" {
			return fmt.Errorf("-trace-out is only supported with -run perfsuite (got %q)", *runID)
		}
		rep, err := expt.TraceSuiteReport(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := expt.WriteTraceReport(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d traced cases)\n", *traceOut, len(rep.Cases))
		if *runID == "perfsuite" && !*asJSON {
			return nil
		}
	}

	if *asJSON {
		if *runID != "perfsuite" {
			return fmt.Errorf("-json is only supported with -run perfsuite (got %q)", *runID)
		}
		rep, err := expt.PerfSuiteReport(cfg)
		if err != nil {
			return err
		}
		w := out
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := expt.WriteBenchReport(w, rep); err != nil {
			return err
		}
		if *outPath != "" {
			fmt.Fprintf(out, "wrote %s (%d cases)\n", *outPath, len(rep.Cases))
		}
		return nil
	}

	var selected []expt.Experiment
	if *runID == "all" {
		selected = expt.All()
	} else {
		e, err := expt.Get(*runID)
		if err != nil {
			return err
		}
		selected = []expt.Experiment{e}
	}
	for _, e := range selected {
		fmt.Fprintf(out, "=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "--- %s done in %s ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
