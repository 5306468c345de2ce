package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	dsd "repro"
	"repro/internal/service/wire"
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
//
// Queries and streams share one pipeline and one result cache.
type Server struct {
	reg    *Registry
	engine *Engine
	mux    *http.ServeMux
	// allowPaths gates POST /v1/graphs {"path": ...}: reading arbitrary
	// server files on request is opt-in (the dsdd binary enables it).
	allowPaths bool
}

// NewServer builds a server over reg with a fresh engine.
func NewServer(reg *Registry, cfg Config) *Server {
	s := &Server{reg: reg, engine: NewEngine(reg, cfg)}
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
// text exposition format. Registry-external state (the registered
// graph count) is refreshed into a gauge at scrape time, so a scrape
// always reflects the current configuration even if no query ran.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.engine.Metrics()
	m.Gauge("dsd_graphs", "Graphs currently registered.").Set(float64(s.reg.Len()))
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
// and decorating shed responses with the Retry-After header a
// well-behaved client's backoff honors.
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

// maxBodyBytes caps request bodies across every dsdd endpoint; the
// largest legitimate payload is an inline edge list (v1 registration),
// and one oversized request must not be able to OOM the server.
const maxBodyBytes = 64 << 20

// decodeJSON strictly decodes one JSON request body into dst, bounded by
// maxBodyBytes. Unknown fields are an error, so a request written for a
// field the server does not have fails loudly instead of being answered
// as if the field were absent.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes err as a wire.ErrorResponse with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.ErrorResponse{Error: err.Error()})
}
