// Command dsd runs a densest-subgraph query on an edge-list graph. Every
// problem variant the library supports is reachable: the flags assemble
// one dsd.Query (via the shared builder in internal/qflag) and a Solver
// answers it.
//
// Usage:
//
//	dsd -graph g.txt [-motif triangle] [-algo core-exact] [-workers 4]
//	    [-iterative 16] [-anchors 1,2] [-at-least 5] [-eps 0.25]
//	    [-deadline 500ms] [-gap 0.05] [-stream] [-mem]
//	    [-mutate batch.txt] [-print] [-json] [-log-level info]
//	    [-log-format text]
//
// The motif is any paper pattern name ("edge", "triangle", "4-clique",
// "2-star", "c3-star", "diamond", "2-triangle", "3-triangle", "basket").
// Algorithms: exact, core-exact, peel, inc, core-app, nucleus, anchored,
// batch-peel, at-least; with -algo unset the algorithm is inferred from
// the variant flags (core-exact by default). With -json the result is
// emitted in the dsdd HTTP API's v2 encoding (a wire.QueryV2Response,
// including the run's QueryStats).
//
// With -mutate the CLI demonstrates the mutable-graph path: it solves on
// the loaded graph, applies the edge-mutation batch from the file ("+ u v"
// inserts, "- u v" deletes, one per line; # comments), and solves again
// on the new version — warm-started from the first solve's memo, so the
// second run skips the Ψ-instance enumeration.
//
// With -stream every certified refinement answer is printed as it is
// found — a monotone sequence of [lower, upper] intervals ending in the
// final answer (one JSON line per event with -json, the wire.StreamEvent
// encoding). -stream, -deadline, and -gap run on the core-exact engine;
// a conflicting -algo is overridden with a warning rather than rejected.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	dsd "repro"
	"repro/internal/obs"
	"repro/internal/qflag"
	"repro/internal/service/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dsd: error: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dsd", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "edge-list file (required)")
		mutatePath = fs.String("mutate", "", "edge-mutation file ('+ u v' inserts, '- u v' deletes); apply after the first solve and solve again on the new version")
		printVerts = fs.Bool("print", false, "print the vertex set of the answer")
		asJSON     = fs.Bool("json", false, "emit the result as JSON in the dsdd v2 API encoding")
		stream     = fs.Bool("stream", false, "print every certified refinement answer while solving (implies -algo core-exact)")
		memStats   = fs.Bool("mem", false, "report each solve's heap allocation (bytes and objects) with the result")
		logLevel   = fs.String("log-level", "info", "minimum log level (debug|info|warn|error)")
		logFormat  = fs.String("log-format", "text", "log encoding (text|json)")
	)
	b := qflag.New()
	b.Motif(fs, "motif", "edge")
	b.Algo(fs, "algo", "")
	b.Workers(fs, "workers", "parallel workers for core-exact (0 or 1 = serial, -1 = GOMAXPROCS)")
	b.Iterative(fs, "iterative", "Greed++ iterations of the anytime stream's Greed++ rung (0 = default, -1 = skip the rung); core-exact solves ignore it")
	b.Anchors(fs, "anchors")
	b.AtLeast(fs, "at-least")
	b.Eps(fs, "eps")
	b.Deadline(fs, "deadline")
	b.Gap(fs, "gap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, obs.LogOptions{
		Level:  *logLevel,
		Format: *logFormat,
		Prefix: "dsd: ",
	})
	if err != nil {
		return err
	}
	if *graphPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -graph")
	}
	// The anytime flags only exist on the core-exact engine; when one is
	// set, the budget wins over a conflicting -algo (with a warning)
	// instead of erroring in normalization.
	if *stream || b.BudgetSet() {
		if old := b.InferCoreExact(); old != "" {
			logger.Warn("anytime flags (-stream/-deadline/-gap) require core-exact; overriding -algo",
				"from", old, "to", string(dsd.AlgoCoreExact))
		}
	}
	q, err := b.Query()
	if err != nil {
		return err
	}
	if *stream && *mutatePath != "" {
		return fmt.Errorf("-stream is incompatible with -mutate: stream one query at a time")
	}
	g, err := dsd.LoadEdgeList(*graphPath)
	if err != nil {
		return err
	}
	logger.Debug("loaded graph", "path", *graphPath, "n", g.N(), "m", g.M())
	var sink func(dsd.Answer)
	if *stream {
		sink = func(a dsd.Answer) { printEvent(out, a, *asJSON) }
	}
	solver := dsd.NewSolver(g)
	res, err := withAllocStats(*memStats, func() (*dsd.Result, error) {
		if sink != nil {
			return solver.StreamFunc(context.Background(), q, sink)
		}
		return solver.Solve(context.Background(), q)
	})
	if err != nil {
		return err
	}
	if err := emit(out, *graphPath, g, q, res, *asJSON, *printVerts); err != nil {
		return err
	}
	if *mutatePath == "" {
		return nil
	}

	// Mutable-graph path: apply the batch as a new version and solve
	// again. The second solve warm-starts from the first run's memo —
	// the incrementally maintained Ψ-degree vector and the carried
	// witness — which is the whole point of mutating instead of
	// reloading.
	m, err := loadMutation(*mutatePath)
	if err != nil {
		return err
	}
	d, err := solver.Mutate(context.Background(), m)
	if err != nil {
		return err
	}
	logger.Debug("applied mutation batch", "path", *mutatePath, "version", int64(d.Version))
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(wire.MutateResponse{
			Graph: *graphPath, Version: int64(d.Version),
			Inserted: d.Inserted, Deleted: d.Deleted,
			SkippedInserts: d.SkippedInserts, SkippedDeletes: d.SkippedDeletes,
			NewVertices: d.NewVertices, N: d.N, M: d.M,
		}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "mutation: +%d -%d edges (skipped %d inserts, %d deletes) -> version %d  n=%d m=%d\n",
			d.Inserted, d.Deleted, d.SkippedInserts, d.SkippedDeletes, d.Version, d.N, d.M)
	}
	res, err = withAllocStats(*memStats, func() (*dsd.Result, error) {
		return solver.Solve(context.Background(), q)
	})
	if err != nil {
		return err
	}
	return emit(out, *graphPath, solver.Graph(), q, res, *asJSON, *printVerts)
}

// withAllocStats runs one solve and, when enabled, fills the result's
// AllocBytes/Allocs from runtime.MemStats deltas around the run — the
// CLI analogue of the per-query attribution the dsdd engine records.
// ReadMemStats stops the world, which does not matter for a one-shot
// CLI and, unlike the span sampler's epoch-granular heap counters, is
// exact even for solves too small to cross an allocation epoch. The
// counters are process-wide, so anything else allocating in this
// process (the stream printer) is included.
func withAllocStats(enabled bool, solve func() (*dsd.Result, error)) (*dsd.Result, error) {
	if !enabled {
		return solve()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := solve()
	if res != nil && err == nil {
		runtime.ReadMemStats(&after)
		res.Stats.AllocBytes = int64(after.TotalAlloc - before.TotalAlloc)
		res.Stats.Allocs = int64(after.Mallocs - before.Mallocs)
	}
	return res, err
}

// printEvent prints one certified refinement answer of a -stream run: a
// one-line wire.StreamEvent JSON with -json, otherwise the interval the
// answer certifies. The upper end is "inf" until the first upper
// certificate appears.
func printEvent(out io.Writer, a dsd.Answer, asJSON bool) {
	if asJSON {
		json.NewEncoder(out).Encode(wire.FromAnswer(a, false))
		return
	}
	upper := "inf"
	if !math.IsInf(a.Bound, 1) {
		upper = fmt.Sprintf("%.6f", a.Bound)
	}
	fmt.Fprintf(out, "stream[%s]: |V|=%d  interval=[%.6f, %s]  t=%s\n",
		a.Stage, len(a.Witness), a.Density.Float(), upper, a.Elapsed.Round(time.Microsecond))
}

// emit prints one solve's answer, as text or in the dsdd v2 JSON
// encoding.
func emit(out io.Writer, graphName string, g *dsd.Graph, q dsd.Query, res *dsd.Result, asJSON, printVerts bool) error {
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(wire.QueryV2Response{
			Graph:  graphName,
			Query:  wire.FromQuery(q),
			Result: wire.FromResult(res),
			Stats:  wire.FromQueryStats(res.Stats),
		})
	}
	fmt.Fprintf(out, "graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Fprintf(out, "motif: %s  algorithm: %s\n", q.Psi(), q.Algo)
	fmt.Fprintf(out, "densest subgraph: |V|=%d  µ=%d  ρ=%.6f  time=%s\n",
		len(res.Vertices), res.Mu, res.Density.Float(), res.Stats.Total)
	if res.Stats.AllocBytes > 0 {
		fmt.Fprintf(out, "allocated: %.2f MiB in %d objects\n",
			float64(res.Stats.AllocBytes)/(1<<20), res.Stats.Allocs)
	}
	if res.Degraded {
		fmt.Fprintf(out, "degraded: optimum in [%.6f, %.6f] (budget exhausted before exactness)\n",
			res.Bound.Lower.Float(), res.Bound.Upper)
	}
	if printVerts {
		for _, v := range res.Vertices {
			fmt.Fprintln(out, v)
		}
	}
	return nil
}

// loadMutation parses an edge-mutation file: one operation per line,
// "+ u v" inserts and "- u v" deletes; blank lines and # comments are
// skipped.
func loadMutation(path string) (dsd.Mutation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return dsd.Mutation{}, err
	}
	var m dsd.Mutation
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || (f[0] != "+" && f[0] != "-") {
			return dsd.Mutation{}, fmt.Errorf("%s:%d: want '+ u v' or '- u v', got %q", path, i+1, line)
		}
		var u, v int
		if _, err := fmt.Sscanf(f[1]+" "+f[2], "%d %d", &u, &v); err != nil {
			return dsd.Mutation{}, fmt.Errorf("%s:%d: bad vertex ids in %q: %v", path, i+1, line, err)
		}
		if f[0] == "+" {
			m.Insert = append(m.Insert, [2]int{u, v})
		} else {
			m.Delete = append(m.Delete, [2]int{u, v})
		}
	}
	return m, nil
}
