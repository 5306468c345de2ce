package dsd

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/psicore"
)

// Version identifies one immutable state of a Solver's graph. Versions
// start at 1 (the graph handed to NewSolver) and advance by one per
// effective Apply; 0 is never a version — in Query.Version it means
// "current head".
type Version int64

// Mutation is one edge-mutation batch: the edges to delete and the edges
// to insert, applied atomically as one new graph version. Deletes apply
// before inserts, so a batch that lists the same edge in both ends with
// the edge present. Endpoints are vertex ids; inserting an edge whose
// endpoint exceeds the current vertex count grows the graph (new
// vertices in between start isolated). Self-loops, negative ids,
// already-present inserts and absent deletes are skipped, not errors —
// the counts come back on MutationDelta.
type Mutation struct {
	Delete [][2]int
	Insert [][2]int
}

// MutationDelta reports what an Apply actually changed.
type MutationDelta struct {
	// Version is the head version after the batch. When the batch changed
	// nothing (every operation skipped), it is the unchanged current
	// version and no new version was created.
	Version Version
	// Inserted and Deleted count the edges that actually changed the
	// graph; SkippedInserts / SkippedDeletes the no-ops (already present,
	// absent, self-loop, negative id).
	Inserted       int
	Deleted        int
	SkippedInserts int
	SkippedDeletes int
	// NewVertices counts vertices added by inserts beyond the previous
	// vertex count.
	NewVertices int
	// N and M are the new version's vertex and edge counts.
	N int
	M int
}

// Changed reports whether the batch produced a new version.
func (d *MutationDelta) Changed() bool { return d.Inserted+d.Deleted > 0 }

// Apply applies an edge-mutation batch to the Solver's graph and returns
// the resulting head version: the Mutation/Version half of the graph
// lifecycle API (Solve is the query half, At pins a reader). It is
// shorthand for Mutate when the caller does not need the change counts.
func (s *Solver) Apply(ctx context.Context, m Mutation) (Version, error) {
	d, err := s.Mutate(ctx, m)
	if err != nil {
		return 0, err
	}
	return d.Version, nil
}

// Mutate applies an edge-mutation batch and returns what changed.
//
// The new version is built copy-on-write — the batch rewrites only the
// lists it touches, in an overlay over the parent's arrays, and folds
// them into a fresh CSR graph in O(N + M) block copies, so in-flight
// queries on older versions keep a consistent view — and the per-graph
// memo is repaired incrementally rather than discarded:
//
//   - For every h-clique Ψ whose whole-graph degree vector the memo
//     holds, the vector and µ(G,Ψ) are updated in O(touched instances)
//     per edge: the cliques through {u,v} are enumerated inside the
//     common neighborhood of u and v (motif.CliqueEdgeDelta), never the
//     whole graph. The next (k,Ψ)-core decomposition on the new version
//     then skips its enumeration-heavy counting prefix entirely
//     (psicore.DecomposeSeeded) — bit-identical to a cold decompose.
//   - The parent's (k,Ψ)-core numbers are carried as pointwise UPPER
//     bounds (psicore.UpperBound: exact under deletes, inflated by the
//     batch's inserted instances, capped by the maintained Ψ-degrees), so
//     the next CoreExact solve locates without re-peeling the new version
//     at all — core numbers only ever prune, so the answer is unchanged
//     (core.Options.DecUpperBound). The peel-order family (AlgoPeel,
//     AlgoInc, nucleus) never reads the bound; those decompositions are
//     recomputed on first use, their peel order being defined per graph.
//   - The best exact witness of each Ψ is carried over and re-evaluated
//     on the new graph, warm-starting the next CoreExact solve
//     (core.Options.SeedWitness).
//
// Pattern (non-clique) Ψ state carries only the witness: there is no
// edge-local delta rule for general patterns, so their degree vectors
// are recomputed on first use. Classical k-core numbers are not carried
// either: a version peels them once, on the first query that reads them
// (anchored, CoreApp for h ≥ 3, a stream's CoreApp rung), which costs
// less than repairing them edge by edge on every batch.
//
// Mutations are serialized (a total order of versions is the point);
// queries never block on a mutation and a mutation never blocks on
// queries. A batch that changes nothing returns the current version
// without creating a new one. On error (only ctx cancellation) the
// Solver is unchanged.
func (s *Solver) Mutate(ctx context.Context, m Mutation) (*MutationDelta, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s.vmu.RLock()
	head := s.head // applyMu serializes writers, so head is stable here
	s.vmu.RUnlock()

	sp := obs.StartFromContext(ctx, obs.SpanMutate)
	defer sp.End()
	sp.SetInt("version", int64(head.ver))

	// Snapshot the memo state to maintain: the incremental repairs below
	// mutate these copies, never the old version's state (readers of the
	// old version keep exact answers).
	carries := head.carryState()

	mut := graph.NewMutator(head.g)
	oldN := head.g.N()
	d := &MutationDelta{Version: head.ver}

	for _, e := range m.Delete {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u, v := e[0], e[1]
		g := mut.Graph()
		if u < 0 || v < 0 || u == v || u >= g.N() || v >= g.N() || !g.HasEdge(u, v) {
			d.SkippedDeletes++
			continue
		}
		// Ψ-deltas are defined on the graph that still contains the edge.
		for _, c := range carries {
			c.applyEdge(g, u, v, -1)
		}
		mut.Delete(u, v)
		d.Deleted++
	}
	for _, e := range m.Insert {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u, v := e[0], e[1]
		if !mut.Insert(u, v) {
			d.SkippedInserts++
			continue
		}
		d.Inserted++
		g := mut.Graph()
		for _, c := range carries {
			c.grow(g.N())
		}
		// Ψ-deltas on the graph that now contains the edge.
		for _, c := range carries {
			c.applyEdge(g, u, v, +1)
		}
	}

	if !d.Changed() {
		d.N, d.M = head.g.N(), head.g.M()
		return d, nil
	}

	ng := mut.Freeze()
	d.Version = head.ver + 1
	d.NewVertices = ng.N() - oldN
	d.N, d.M = ng.N(), ng.M()
	sp.SetInt("inserted", int64(d.Inserted))
	sp.SetInt("deleted", int64(d.Deleted))

	nv := &verState{ver: d.Version, g: ng, psi: make(map[string]*psiState, len(carries))}
	for _, c := range carries {
		st := &psiState{o: c.o, witness: c.witness}
		if c.maintained {
			st.total, st.deg, st.haveDeg = c.total, c.deg, true
			if c.ubSrc != nil && c.slack <= c.ubSrc.KMax {
				// Carry the parent's core numbers as upper bounds so the
				// next core-exact solve skips the peel too. A batch whose
				// inserted instances rival kmax would inflate the bound
				// past usefulness — drop it and let the next solve re-peel.
				st.ub = psicore.UpperBound(c.ubSrc, c.slack, c.total, c.deg)
			}
		}
		nv.psi[c.o.Name()] = st
	}
	s.vmu.Lock()
	s.head = nv
	s.hist[nv.ver] = nv
	s.pruneLocked()
	s.vmu.Unlock()
	return d, nil
}

// psiCarry is one Ψ memo cell snapshotted for incremental maintenance
// across a mutation batch.
type psiCarry struct {
	o       motif.Oracle
	witness []int32
	// maintained: the degree vector below is live and updated per edge
	// (clique oracles with a memoized vector only).
	maintained bool
	h          int
	total      int64
	deg        []int64
	// ubSrc is the parent version's core-number source — its exact peel
	// when it has one, else the upper bound it itself carried — from which
	// the new version's upper-bound decomposition is derived. slack
	// accumulates the inserted Ψ-instances of the batch, the inflation
	// psicore.UpperBound needs to stay a valid pointwise bound.
	ubSrc *psicore.Decomposition
	slack int64
}

// carryState snapshots every Ψ cell of the version: witness always,
// degree vector when present and the oracle is a clique.
func (vs *verState) carryState() []*psiCarry {
	vs.mu.Lock()
	states := make([]*psiState, 0, len(vs.psi))
	for _, st := range vs.psi {
		states = append(states, st)
	}
	vs.mu.Unlock()
	carries := make([]*psiCarry, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		c := &psiCarry{o: st.o}
		if len(st.witness) > 0 {
			c.witness = append([]int32(nil), st.witness...)
		}
		if cl, ok := st.o.(motif.Clique); ok && st.haveDeg {
			c.maintained = true
			c.h = cl.H
			c.total = st.total
			c.deg = append([]int64(nil), st.deg...)
			// Core numbers carry as upper bounds only alongside a
			// maintained degree vector: UpperBound needs the new version's
			// exact degrees and instance count to stay a bound at all.
			if st.dec != nil {
				c.ubSrc = st.dec
			} else {
				c.ubSrc = st.ub
			}
		}
		st.mu.Unlock()
		if c.witness != nil || c.maintained {
			carries = append(carries, c)
		}
	}
	return carries
}

// grow pads the carried degree vector for vertices added by inserts.
func (c *psiCarry) grow(n int) {
	if c.maintained && n > len(c.deg) {
		c.deg = append(c.deg, make([]int64, n-len(c.deg))...)
	}
}

// applyEdge folds one edge's Ψ-instance delta into the carried vector:
// sign is +1 after an insert, −1 before a delete; g must contain the
// edge in both cases.
func (c *psiCarry) applyEdge(g *Graph, u, v int, sign int64) {
	if !c.maintained {
		return
	}
	total, delta := motif.CliqueEdgeDelta(g, u, v, c.h)
	c.total += sign * total
	for w, dd := range delta {
		c.deg[w] += sign * dd
	}
	if sign > 0 {
		// Every instance created by the batch is enumerated exactly once,
		// at its last-inserted edge (deletes run first, so the graph only
		// grows from here): the sum bounds any vertex's core-number rise.
		// Deletes need no slack — they only lower core numbers.
		c.slack += total
	}
}

// Snapshot is a read-only handle on one retained graph version: queries
// through it answer on that version's graph and memo regardless of later
// mutations, and keep working even after the version is evicted from the
// retention window (the handle holds the state directly).
type Snapshot struct {
	s  *Solver
	vs *verState
}

// At returns a handle pinned to version v (0 pins the current head,
// resolved now). The version must currently be retained; the returned
// Snapshot stays valid forever.
func (s *Solver) At(v Version) (*Snapshot, error) {
	vs, err := s.state(v)
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s, vs: vs}, nil
}

// Version returns the snapshot's pinned version.
func (sn *Snapshot) Version() Version { return sn.vs.ver }

// Graph returns the snapshot's immutable graph.
func (sn *Snapshot) Graph() *Graph { return sn.vs.g }

// Solve answers q on the snapshot's version. q.Version must be zero or
// equal to the pinned version — a snapshot cannot answer for a different
// version.
func (sn *Snapshot) Solve(ctx context.Context, q Query) (*Result, error) {
	nq, o, err := sn.normalize(q)
	if err != nil {
		return nil, err
	}
	return sn.s.solveOn(ctx, nq, o, sn.vs, nil)
}

// normalize normalizes q and checks that it may be answered on the
// snapshot's version.
func (sn *Snapshot) normalize(q Query) (Query, motif.Oracle, error) {
	nq, o, err := q.normalize()
	if err != nil {
		return Query{}, nil, err
	}
	if nq.Version != 0 && nq.Version != sn.vs.ver {
		return Query{}, nil, fmt.Errorf("dsd: snapshot pinned to version %d cannot answer for version %d", sn.vs.ver, nq.Version)
	}
	return nq, o, nil
}
