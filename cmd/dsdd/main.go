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
//	     [-shards http://w1:8080,http://w2:8080] [-shard-hedge 3s]
//	     [-shard-timeout 0] [-shard-bound-timeout 2s]
//	     [-shard-of http://coordinator:8080]
//	     [-advertise http://host:port]
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
// GET /metrics (Prometheus text exposition), GET /healthz, plus the
// wire v3 sharding protocol (POST /v3/component, POST /v3/bound,
// GET/POST /v3/shards).
//
// Observability: every computed query runs under a phase-level trace
// that returns in the response's stats (disable with -trace=false);
// -slow-query DURATION logs any computation at or over the threshold
// with its full phase breakdown; -pprof mounts net/http/pprof under
// /debug/pprof/. Every request additionally leaves one wide query event
// — outcome, phase costs, allocation, queue wait, shard breakdown — in
// a bounded in-memory ring served at GET /v1/querylog; anomalous events
// (slow, degraded, shed, errored) are always retained, routine
// successes one-in-N (-querylog sizes the ring, -querylog-sample sets
// N, -querylog -1 disables). Logs go to stderr through log/slog —
// -log-level picks the floor (debug|info|warn|error) and -log-format
// text|json the encoding (text keeps the historical human-readable
// lines).
//
// Distributed sharding: `-shards` seeds the coordinator's worker set
// (workers may also self-register via POST /v3/shards); while the set is
// non-empty, core-exact queries are planned locally and their component
// searches fan across the workers. `-shard-of URL` runs this server as a
// worker of the coordinator at URL: after the listener binds, the server
// registers its resolved address (override with `-advertise`) and
// answers /v3/component searches. Every worker must hold the queried
// graphs under the same names as the coordinator.
//
//	curl -s localhost:8080/v2/query -d '{"graph":"web","query":{"pattern":"triangle","algo":"core-exact"}}'
//	curl -sN localhost:8080/v1/stream -d '{"graph":"web","query":{"pattern":"triangle"}}'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v3/shards
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/qflag"
	"repro/internal/service"
	"repro/internal/shard"
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
	srv, opts, err := newServer(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	// Log the RESOLVED listen address, not the requested flag value: with
	// `-addr :0` the kernel picks the port, and test harnesses / shard
	// registration need the real one to scrape.
	advertise := opts.advertise
	if advertise == "" {
		advertise = advertiseURL(ln.Addr())
	}
	fmt.Fprintf(out, "dsdd: listening on http://%s (advertised as %s, %d graphs, %d workers)\n",
		ln.Addr(), advertise, srv.Engine().Stats().Graphs, srv.Engine().Workers())
	if opts.shardOf != "" {
		go registerWithCoordinator(opts.shardOf, advertise, opts.log)
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	return hs.Serve(ln)
}

// advertiseURL derives a dialable base URL from a bound listener
// address, replacing an unspecified host (":0"-style binds) with
// loopback — right for the single-machine and test topologies; multi-host
// deployments pass -advertise.
func advertiseURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// registerWithCoordinator announces this worker to the coordinator,
// retrying while the coordinator comes up; registration is idempotent so
// retries are safe.
func registerWithCoordinator(coord, advertise string, logger *slog.Logger) {
	client := shard.NewClient(nil)
	for attempt := 0; attempt < 30; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := client.Register(ctx, coord, advertise)
		cancel()
		if err == nil {
			logger.Info("registered as shard worker", "advertise", advertise, "coordinator", coord)
			return
		}
		time.Sleep(500 * time.Millisecond)
	}
	logger.Error("giving up registering with coordinator", "coordinator", coord)
}

// serverOpts carries the flag values run needs after newServer returns.
type serverOpts struct {
	addr      string
	shardOf   string
	advertise string
	log       *slog.Logger
}

// newServer parses args, preloads graphs, and builds the HTTP server.
// The per-query default knobs come through the shared Query builder
// (internal/qflag), so -algo-workers/-algo-iterative mean exactly what
// cmd/dsd's -workers/-iterative mean.
func newServer(args []string) (*service.Server, serverOpts, error) {
	fs := flag.NewFlagSet("dsdd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "max concurrent computations (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue", 0, "admission queue depth beyond the running workers; arrivals past it are shed with 503 (0 = 4x workers, negative = unbounded)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-query timeout (0 = none)")
		allowPaths   = fs.Bool("allow-paths", false, "allow registering graphs from server file paths via the API")
		shards       = fs.String("shards", "", "comma-separated shard worker base URLs; non-empty makes this server coordinate core-exact queries across them")
		shardHedge   = fs.Duration("shard-hedge", 0, "straggler delay before a slow shard's component is duplicated locally (0 = default, negative = off)")
		shardTimeout = fs.Duration("shard-timeout", 0, "per-component remote attempt timeout (0 = query budget only)")
		shardBoundTO = fs.Duration("shard-bound-timeout", 0, "per-rebroadcast timeout for shard bound updates (0 = default 2s)")
		shardOf      = fs.String("shard-of", "", "coordinator base URL to register this server with as a shard worker")
		advertise    = fs.String("advertise", "", "base URL to advertise to the coordinator (default: the resolved listen address)")
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
		return nil, serverOpts{}, err
	}
	logger, err := obs.NewLogger(os.Stderr, obs.LogOptions{
		Level:  *logLevel,
		Format: *logFormat,
		Prefix: "dsdd: ",
	})
	if err != nil {
		return nil, serverOpts{}, err
	}
	q, err := b.Query()
	if err != nil {
		return nil, serverOpts{}, err
	}
	var shardAddrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			shardAddrs = append(shardAddrs, a)
		}
	}
	reg := service.NewRegistry()
	reg.SetRetain(*retain)
	for _, spec := range graphs {
		name, path, _ := strings.Cut(spec, "=")
		if _, err := reg.RegisterFile(name, path); err != nil {
			return nil, serverOpts{}, err
		}
		logger.Debug("preloaded graph", "name", name, "path", path)
	}
	srv := service.NewServer(reg, service.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		AlgoWorkers:       q.Workers,
		AlgoIterative:     q.Iterative,
		Timeout:           *timeout,
		ShardAddrs:        shardAddrs,
		ShardHedge:        *shardHedge,
		ShardTimeout:      *shardTimeout,
		ShardBoundTimeout: *shardBoundTO,
		Logger:            logger,
		SlowQuery:         *slowQuery,
		QueryLog:          *queryLog,
		QueryLogSample:    *queryLogSamp,
		NoTrace:           !*trace,
	})
	if *allowPaths {
		srv.AllowPathRegistration()
	}
	if *pprofFlag {
		srv.EnablePprof()
	}
	return srv, serverOpts{addr: *addr, shardOf: *shardOf, advertise: *advertise, log: logger}, nil
}
