// Package service is the serving layer over the dsd library: a
// thread-safe graph registry, a query engine with a bounded worker pool
// and a single-flight result cache, and an HTTP JSON API (see Server).
// It amortizes per-graph work across many queries instead of recomputing
// it per CLI invocation.
package service

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dsd "repro"
	"repro/internal/graph"
	"repro/internal/service/wire"
)

// ErrAlreadyRegistered reports a graph-name collision; match with
// errors.Is.
var ErrAlreadyRegistered = errors.New("already registered")

// entrySeq mints process-unique entry IDs (see GraphEntry.ID).
var entrySeq atomic.Int64

// GraphEntry is one registered graph with its precomputed structural
// summary and the Solver every query on it goes through. The entry's
// fields are immutable after registration (the Solver is internally
// synchronized), so entries may be read concurrently without locking.
type GraphEntry struct {
	Name string
	// ID is unique per registration, process-wide. Names can re-bind
	// across a Remove + Register, so caches key on (Name, ID) — the
	// CacheKey composite — never on the bare name: a re-registered name
	// is a different graph and must never serve the old entry's results.
	ID       int64
	G        *dsd.Graph
	Stats    graph.Stats
	LoadedAt time.Time
	// Solver answers queries on G, memoizing per-Ψ state (degree
	// vectors, core decompositions) across them — the registry owning it
	// is what makes the second query on a hot graph cheap regardless of
	// which cache key it arrives under.
	Solver *dsd.Solver
}

// Info returns the entry's wire form.
func (e *GraphEntry) Info() wire.GraphInfo { return wire.FromStats(e.Name, e.Stats) }

// CacheKey is the entry's result-cache graph key: the name composited
// with the registration ID, so results can never outlive the entry they
// were computed on.
func (e *GraphEntry) CacheKey() string { return fmt.Sprintf("%s#%d", e.Name, e.ID) }

// Registry is a thread-safe collection of named graphs. Registration
// computes the graph's structural summary once; queries then share the
// immutable entry.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*GraphEntry
	retain int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*GraphEntry)}
}

// SetRetain sets the graph-version retention window applied to every
// subsequently registered graph's Solver (0 keeps the library default,
// dsd.DefaultRetainVersions). Already-registered Solvers are unaffected.
func (r *Registry) SetRetain(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retain = n
}

// Register adds g under name. Names are non-empty and unique among the
// currently registered graphs: re-using a live name is an error. A name
// may re-bind after Remove, which is why result caches key on the
// entry's CacheKey (name + registration ID), never the bare name.
func (r *Registry) Register(name string, g *dsd.Graph) (*GraphEntry, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("service: empty graph name")
	}
	if g == nil {
		return nil, fmt.Errorf("service: nil graph %q", name)
	}
	// Fail fast on an existing name before paying for ComputeStats; the
	// authoritative check below still runs under the write lock.
	r.mu.RLock()
	_, dup := r.graphs[name]
	r.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("service: graph %q %w", name, ErrAlreadyRegistered)
	}
	// Precompute outside the lock: ComputeStats is O(n·m) in the worst
	// case and must not serialize registrations behind it.
	entry := &GraphEntry{
		Name:     name,
		ID:       entrySeq.Add(1),
		G:        g,
		Stats:    g.ComputeStats(),
		LoadedAt: time.Now(),
		Solver:   dsd.NewSolver(g),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return nil, fmt.Errorf("service: graph %q %w", name, ErrAlreadyRegistered)
	}
	if r.retain > 0 {
		entry.Solver.SetRetain(r.retain)
	}
	r.graphs[name] = entry
	return entry, nil
}

// Remove unregisters the graph under name, returning the removed entry
// (false when no such graph). In-flight queries holding the entry finish
// normally; the caller is responsible for evicting the entry's cached
// results (see Engine.DeleteGraph).
func (r *Registry) Remove(name string) (*GraphEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if ok {
		delete(r.graphs, name)
	}
	return e, ok
}

// RegisterEdgeList parses a whitespace edge list and registers it.
func (r *Registry) RegisterEdgeList(name string, rd io.Reader) (*GraphEntry, error) {
	g, err := dsd.FromEdgeList(rd)
	if err != nil {
		return nil, fmt.Errorf("service: graph %q: %w", name, err)
	}
	return r.Register(name, g)
}

// RegisterFile loads an edge-list file and registers it.
func (r *Registry) RegisterFile(name, path string) (*GraphEntry, error) {
	g, err := dsd.LoadEdgeList(path)
	if err != nil {
		return nil, fmt.Errorf("service: graph %q: %w", name, err)
	}
	return r.Register(name, g)
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*GraphEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	return e, ok
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

// List returns all entries sorted by name.
func (r *Registry) List() []*GraphEntry {
	r.mu.RLock()
	out := make([]*GraphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
