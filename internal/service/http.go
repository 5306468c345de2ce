package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	dsd "repro"
	"repro/internal/service/wire"
	"repro/internal/shard"
)

// Server is the HTTP JSON API over a Registry and Engine:
//
//	POST   /v2/query            — run any dsd.Query (wire.QueryV2Request)
//	POST   /v1/stream           — run a core-exact dsd.Query as an anytime SSE stream
//	GET    /v1/graphs           — list registered graphs with their stats
//	POST   /v1/graphs           — register a graph (inline edges or server path)
//	GET    /v1/graphs/{g}       — per-graph detail: stats, current version, retained versions
//	DELETE /v1/graphs/{g}       — unregister a graph and evict its cached results
//	POST   /v1/graphs/{g}/edges — apply an edge-mutation batch, returning the new version
//	GET    /v1/stats            — operational counters
//	GET    /v1/querylog         — wide-event query log (tail-sampled ring, newest first)
//	GET    /metrics             — Prometheus text exposition of the engine registry
//	GET    /healthz             — liveness probe
//	POST   /v3/component        — run one CoreExact component search (shard worker)
//	POST   /v3/bound            — raise an in-flight component search's floor
//	GET    /v3/shards           — list registered shard workers with health
//	POST   /v3/shards           — register a shard worker's base URL
//
// Queries and streams share one pipeline and one result cache. The v3
// endpoints are the distributed sharding protocol (internal/shard):
// every server can act as a shard worker, and a server whose shard set
// is non-empty coordinates — its core-exact queries fan their component
// searches across the registered workers.
type Server struct {
	reg    *Registry
	engine *Engine
	worker *shard.Worker
	mux    *http.ServeMux
	// allowPaths gates POST /v1/graphs {"path": ...}: reading arbitrary
	// server files on request is opt-in (the dsdd binary enables it).
	allowPaths bool
}

// NewServer builds a server over reg with a fresh engine.
func NewServer(reg *Registry, cfg Config) *Server {
	s := &Server{reg: reg, engine: NewEngine(reg, cfg), worker: shard.NewWorker(reg)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/query", s.handleQueryV2)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	mux.HandleFunc("GET /v1/graphs/{g}", s.handleGraphDetail)
	mux.HandleFunc("DELETE /v1/graphs/{g}", s.handleDeleteGraph)
	mux.HandleFunc("POST /v1/graphs/{g}/edges", s.handleMutateGraph)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/querylog", s.handleQueryLog)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.worker.Register(mux)
	mux.HandleFunc("GET /v3/shards", s.handleListShards)
	mux.HandleFunc("POST /v3/shards", s.handleRegisterShard)
	s.mux = mux
	return s
}

// AllowPathRegistration enables registering graphs from server-side file
// paths via the API.
func (s *Server) AllowPathRegistration() { s.allowPaths = true }

// Engine returns the server's query engine (for stats and tests).
func (s *Server) Engine() *Engine { return s.engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryV2Request
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Graph == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("graph is required"))
		return
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The response echoes the canonical query — defaults applied,
	// algorithm inferred, version pinned to the concrete head — the cache
	// actually keyed.
	nq, res, cached, err := s.engine.solveCounted(r.Context(), req.Graph, q,
		time.Duration(req.TimeoutMs)*time.Millisecond)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	resp := wire.QueryV2Response{
		Graph:  req.Graph,
		Query:  wire.FromQuery(nq),
		Cached: cached,
		Result: wire.FromResult(res),
	}
	if res != nil {
		resp.Stats = wire.FromQueryStats(res.Stats)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.List()
	infos := make([]wire.GraphInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.Info()
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var entry *GraphEntry
	var err error
	switch {
	case req.Edges != "" && req.Path != "":
		writeError(w, http.StatusBadRequest, fmt.Errorf("edges and path are mutually exclusive"))
		return
	case req.Edges != "":
		entry, err = s.reg.RegisterEdgeList(req.Name, strings.NewReader(req.Edges))
	case req.Path != "":
		if !s.allowPaths {
			writeError(w, http.StatusForbidden, fmt.Errorf("path registration is disabled on this server"))
			return
		}
		entry, err = s.reg.RegisterFile(req.Name, req.Path)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("one of edges or path is required"))
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrAlreadyRegistered) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, entry.Info())
}

// handleGraphDetail is GET /v1/graphs/{g}: the per-graph lifecycle view
// (registered-time stats, current version with live counts, retained
// versions).
func (s *Server) handleGraphDetail(w http.ResponseWriter, r *http.Request) {
	detail, err := s.engine.GraphDetail(r.PathValue("g"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, detail)
}

// handleDeleteGraph is DELETE /v1/graphs/{g}: unregister the graph and
// evict its cached results. In-flight queries finish normally; the name
// may be re-used, starting with a cold cache.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if err := s.engine.DeleteGraph(r.PathValue("g")); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleMutateGraph is POST /v1/graphs/{g}/edges: apply an edge-mutation
// batch as one new graph version and return it. Queries admitted before
// the batch keep answering on their pinned pre-mutation version.
func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	var req wire.MutateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("at least one of insert or delete is required"))
		return
	}
	name := r.PathValue("g")
	d, err := s.engine.Mutate(r.Context(), name, dsd.Mutation{Insert: req.Insert, Delete: req.Delete})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.MutateResponse{
		Graph:          name,
		Version:        int64(d.Version),
		Inserted:       d.Inserted,
		Deleted:        d.Deleted,
		SkippedInserts: d.SkippedInserts,
		SkippedDeletes: d.SkippedDeletes,
		NewVertices:    d.NewVertices,
		N:              d.N,
		M:              d.M,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

// handleQueryLog is GET /v1/querylog: the retained tail of the
// wide-event query log, newest first. ?limit=N caps the number of
// events returned. With the log disabled (dsdd -querylog -1) the
// response is well-formed with capacity 0 and no events.
func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid limit %q", v))
			return
		}
		limit = n
	}
	l := s.engine.QueryLog()
	seen, retained, sampled := l.Counts()
	writeJSON(w, http.StatusOK, wire.QueryLogResponse{
		Schema:      wire.QueryLogSchema,
		Capacity:    l.Cap(),
		SampleEvery: l.SampleEvery(),
		Seen:        seen,
		Retained:    retained,
		Sampled:     sampled,
		Events:      l.Snapshot(limit),
	})
}

// handleMetrics is GET /metrics: the engine's registry in Prometheus
// text exposition format. Registry-external state (registered graphs,
// shard set size) is refreshed into gauges at scrape time, so a scrape
// always reflects the current configuration even if no query ran.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.engine.Metrics()
	m.Gauge("dsd_graphs", "Graphs currently registered.").Set(float64(s.reg.Len()))
	m.Gauge("dsd_shard_workers", "Shard workers currently registered with the coordinator.").
		Set(float64(s.engine.Coordinator().Set().Len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WritePrometheus(w)
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ —
// opt-in (the dsdd -pprof flag), since profiling endpoints expose
// process internals and cost CPU while a profile runs.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// handleRegisterShard is POST /v3/shards: a `dsdd -shard-of` worker
// announcing its base URL. Registration is idempotent (the set dedupes).
func (s *Server) handleRegisterShard(w http.ResponseWriter, r *http.Request) {
	var req wire.ShardRegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("addr is required"))
		return
	}
	u, err := url.Parse(req.Addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("addr %q is not a base URL (want e.g. http://host:port)", req.Addr))
		return
	}
	s.engine.Coordinator().Set().Add(req.Addr)
	writeJSON(w, http.StatusOK, s.shardInfos(r.Context(), false))
}

// handleListShards is GET /v3/shards: the registered workers, each with
// a live health probe.
func (s *Server) handleListShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.shardInfos(r.Context(), true))
}

// shardInfos snapshots the shard set; with probe set, each worker's
// /healthz is checked concurrently under a short timeout.
func (s *Server) shardInfos(ctx context.Context, probe bool) []wire.ShardInfo {
	addrs := s.engine.Coordinator().Set().List()
	infos := make([]wire.ShardInfo, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		infos[i] = wire.ShardInfo{Addr: addr}
		if !probe {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			infos[i].Healthy = shard.NewClient(nil).Health(pctx, addr) == nil
		}(i, addr)
	}
	wg.Wait()
	return infos
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ShedRetryAfter is the floor of the Retry-After suggestion on shed
// (503) query responses; MaxShedRetryAfter caps it. Between the two the
// advice is live: queue occupancy times the engine's observed drain
// rate (Engine.RetryAfter), so a lightly backed-up server invites a
// quick retry while a deeply queued one pushes the herd further out.
const (
	ShedRetryAfter    = 1 * time.Second
	MaxShedRetryAfter = 30 * time.Second
)

// writeQueryError answers a failed query, mapping the error to a status
// and decorating shed responses with the Retry-After header the
// coordinator's (and any well-behaved client's) backoff honors.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.engine.RetryAfter().Seconds())))
	}
	writeError(w, status, err)
}

// statusFor maps engine errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case strings.Contains(err.Error(), "unknown graph"):
		return http.StatusNotFound
	case strings.Contains(err.Error(), "not retained"):
		// A query pinned to a graph version that has been evicted from the
		// Solver's retention window: the request was well-formed but names
		// state this server no longer holds.
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// The JSON request/response helpers (body cap, strict decoding, error
// shape) live in the wire package, shared with the v3 shard worker.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	return wire.DecodeJSON(w, r, dst)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	wire.WriteJSON(w, status, v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	wire.WriteError(w, status, err)
}
