// Command dsdd serves densest-subgraph queries over HTTP. It keeps
// registered graphs and their Ψ-core work warm across queries, dispatches
// work through a bounded worker pool, and deduplicates concurrent
// identical queries through a single-flight result cache.
//
// Usage:
//
//	dsdd [-addr :8080] [-workers 8] [-queue 32] [-algo-workers 2]
//	     [-algo-iterative 16]
//	     [-timeout 30s] [-graph name=edges.txt ...] [-allow-paths]
//	     [-retain 8]
//	     [-log-level info] [-log-format text] [-slow-query 0]
//	     [-querylog 512] [-querylog-sample 8]
//	     [-trace=true] [-pprof]
//
// API: POST /v2/query (any dsd.Query), POST /v1/stream (a core-exact
// query as an anytime SSE stream), GET/POST /v1/graphs, GET/DELETE
// /v1/graphs/{g} (per-graph detail / eviction), POST /v1/graphs/{g}/edges
// (edge-mutation batches producing new graph versions; -retain bounds how
// many stay addressable),
// GET /v1/stats, GET /v1/querylog (the wide-event query log),
// GET /metrics (Prometheus text exposition), GET /healthz.
//
// Observability: every computed query runs under a phase-level trace
// that returns in the response's stats (disable with -trace=false);
// -slow-query DURATION logs any computation at or over the threshold
// with its full phase breakdown; -pprof mounts net/http/pprof under
// /debug/pprof/. Every request additionally leaves one wide query event
// — outcome, phase costs, allocation, queue wait — in
// a bounded in-memory ring served at GET /v1/querylog; anomalous events
// (slow, degraded, shed, errored) are always retained, routine
// successes one-in-N (-querylog sizes the ring, -querylog-sample sets
// N, -querylog -1 disables). Logs go to stderr through log/slog —
// -log-level picks the floor (debug|info|warn|error) and -log-format
// text|json the encoding (text keeps the historical human-readable
// lines).
//
//	curl -s localhost:8080/v2/query -d '{"graph":"web","query":{"pattern":"triangle","algo":"core-exact"}}'
//	curl -sN localhost:8080/v1/stream -d '{"graph":"web","query":{"pattern":"triangle"}}'
//	curl -s localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/qflag"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dsdd: error: %v\n", err)
		os.Exit(1)
	}
}

// graphSpecs collects repeated -graph name=path flags.
type graphSpecs []string

func (g *graphSpecs) String() string { return strings.Join(*g, ",") }

func (g *graphSpecs) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*g = append(*g, v)
	return nil
}

func run(args []string, out io.Writer) error {
	srv, addr, err := newServer(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Log the RESOLVED listen address, not the requested flag value: with
	// `-addr :0` the kernel picks the port, and test harnesses need the
	// real one to scrape.
	fmt.Fprintf(out, "dsdd: listening on http://%s (%d graphs, %d workers)\n",
		ln.Addr(), srv.Engine().Stats().Graphs, srv.Engine().Workers())
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	return hs.Serve(ln)
}

// newServer parses args, preloads graphs, and builds the HTTP server; it
// also returns the -addr value run listens on. The per-query default knobs come through the shared Query builder
// (internal/qflag), so -algo-workers/-algo-iterative mean exactly what
// cmd/dsd's -workers/-iterative mean.
func newServer(args []string) (*service.Server, string, error) {
	fs := flag.NewFlagSet("dsdd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "max concurrent computations (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue", 0, "admission queue depth beyond the running workers; arrivals past it are shed with 503 (0 = 4x workers, negative = unbounded)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-query timeout (0 = none)")
		allowPaths   = fs.Bool("allow-paths", false, "allow registering graphs from server file paths via the API")
		logLevel     = fs.String("log-level", "info", "minimum log level (debug|info|warn|error)")
		logFormat    = fs.String("log-format", "text", "log encoding (text|json)")
		retain       = fs.Int("retain", 0, "graph versions each mutable graph keeps addressable for pinned queries (0 = library default)")
		slowQuery    = fs.Duration("slow-query", 0, "log any computation taking at least this long, with its phase breakdown (0 = off)")
		queryLog     = fs.Int("querylog", 0, "wide-event query log capacity served at GET /v1/querylog (0 = default 512, negative = disabled)")
		queryLogSamp = fs.Int("querylog-sample", 0, "keep one in N routine successes in the query log; anomalies are always kept (0 = default 8, 1 = all)")
		trace        = fs.Bool("trace", true, "attach a phase-level trace to every computed query's stats")
		pprofFlag    = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		graphs       graphSpecs
	)
	b := qflag.New()
	b.Workers(fs, "algo-workers", "default parallel workers inside each core-exact query (0 = GOMAXPROCS/workers, 1 = serial, -1 = GOMAXPROCS)")
	b.Iterative(fs, "algo-iterative", "default Greed++ iterations of a core-exact stream's Greed++ rung (0 = default, -1 = skip the rung); core-exact solves ignore it")
	fs.Var(&graphs, "graph", "preload a graph as name=edge-list-path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	logger, err := obs.NewLogger(os.Stderr, obs.LogOptions{
		Level:  *logLevel,
		Format: *logFormat,
		Prefix: "dsdd: ",
	})
	if err != nil {
		return nil, "", err
	}
	q, err := b.Query()
	if err != nil {
		return nil, "", err
	}
	reg := service.NewRegistry()
	reg.SetRetain(*retain)
	for _, spec := range graphs {
		name, path, _ := strings.Cut(spec, "=")
		if _, err := reg.RegisterFile(name, path); err != nil {
			return nil, "", err
		}
		logger.Debug("preloaded graph", "name", name, "path", path)
	}
	srv := service.NewServer(reg, service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		AlgoWorkers:    q.Workers,
		AlgoIterative:  q.Iterative,
		Timeout:        *timeout,
		Logger:         logger,
		SlowQuery:      *slowQuery,
		QueryLog:       *queryLog,
		QueryLogSample: *queryLogSamp,
		NoTrace:        !*trace,
	})
	if *allowPaths {
		srv.AllowPathRegistration()
	}
	if *pprofFlag {
		srv.EnablePprof()
	}
	return srv, *addr, nil
}
