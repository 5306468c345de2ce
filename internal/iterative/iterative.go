// Package iterative implements a Greed++-style load-balancing pre-solver
// for densest-subgraph search, generalized from edges to the Ψ-hypergraph
// (h-cliques, pattern instances) behind motif.Oracle — the flow-free
// iterative scheme of "Flowless: Extracting Densest Subgraphs Without Flow
// Computations" (Boob et al., WWW 2020).
//
// The solver materializes the instance hypergraph once — the same µ·|VΨ|
// membership links the flow-network side materializes — so an iteration is
// pure array-and-bucket work with no instance re-enumeration. Each
// iteration is one peel of the graph ordered by load(v) + residual
// Ψ-degree. When a vertex is peeled, every still-alive instance containing
// it is charged to it — one unit per instance — so after T iterations every
// instance has distributed exactly T units among its members. By LP duality
// for Charikar's densest-subgraph program, any such fractional charging
// upper-bounds the optimum: ρ* ≤ max_v load(v)/T. Dually, every residual
// prefix of every peel is a real vertex set whose exact rational density
// lower-bounds ρ*. The solver therefore produces, without a single flow
// computation, a certified (lower, witness, upper) triple; the bounds
// tighten monotonically with more iterations (iteration one is exactly
// Algorithm 2's greedy peel). Exact takes its starting witness from it,
// and a streamed CoreExact run streams it as its StageIterative rung; the
// CoreExact component searches do not use it.
package iterative

import (
	"context"
	"math"
	"math/big"

	"repro/internal/bucketq"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/rational"
)

// ctxCheckStride is how many peel steps run between context polls inside
// one iteration, mirroring psicore's stride.
const ctxCheckStride = 1024

// Solver accumulates Greed++ load-balancing state for one fixed graph and
// motif. It is not safe for concurrent use.
type Solver struct {
	n int
	p int // |VΨ|, the instance arity

	// insts holds the members of every instance back to back (arity p);
	// inc/incOff is the per-vertex incidence into it (CSR layout).
	insts  []int32
	inc    []int32
	incOff []int32
	total  int64 // µ(g,Ψ)
	// deg0[v] is the initial Ψ-degree, seeding every iteration's queue.
	deg0 []int64

	// loads[v] is the total number of instance-units charged to v across
	// all iterations; iters counts the completed iterations.
	loads []int64
	iters int

	// lower/lowerVerts is the best certified lower bound seen across all
	// iterations: the exact density of a residual prefix, with its witness
	// in the solver graph's (local) vertex ids.
	lower      rational.R
	lowerVerts []int32

	// Progress, when non-nil, is invoked after every completed chunk of a
	// RunAdaptive call, on the caller's goroutine — the streamed CoreExact run's
	// per-chunk emission hook. The callback may read Lower/Upper/UpperFloat
	// freely (same goroutine, between iterations) but must not call Run.
	Progress func()

	// dead/order/delta/touched/keys/q are per-iteration scratch, reused
	// across iterations; delta batches each removal's key decrements so
	// the bucket queue sees one operation per co-member, not one per
	// shared instance (the difference is ~p·deg vs deg for clique
	// kernels), and the queue itself is Reset instead of rebuilt.
	dead    []bool
	order   []int32
	delta   []int64
	touched []int32
	keys    []int64
	q       *bucketq.Queue
}

// New builds a solver for (g, o), enumerating the instance hypergraph
// once. The materialization is never larger than what the flow-network
// side of the same subgraph materializes.
func New(g *graph.Graph, o motif.Oracle) *Solver {
	n := g.N()
	s := &Solver{
		n:     n,
		p:     o.Size(),
		deg0:  make([]int64, n),
		loads: make([]int64, n),
		lower: rational.Zero,
	}
	motif.ForEachInstance(g, o, func(vs []int32) {
		s.insts = append(s.insts, vs...)
		for _, v := range vs {
			s.deg0[v]++
		}
	})
	s.total = int64(len(s.insts) / s.p)
	// Incidence in CSR form: bucket counts, prefix sums, fill.
	s.incOff = make([]int32, n+1)
	for _, v := range s.insts {
		s.incOff[v+1]++
	}
	for v := 0; v < n; v++ {
		s.incOff[v+1] += s.incOff[v]
	}
	s.inc = make([]int32, len(s.insts))
	fill := append([]int32(nil), s.incOff[:n]...)
	for i := 0; i < len(s.insts); i += s.p {
		for _, v := range s.insts[i : i+s.p] {
			s.inc[fill[v]] = int32(i / s.p)
			fill[v]++
		}
	}
	s.dead = make([]bool, s.total)
	s.delta = make([]int64, n)
	return s
}

// Iterations returns the number of completed iterations.
func (s *Solver) Iterations() int { return s.iters }

// Total returns µ(g,Ψ) for the solver's graph.
func (s *Solver) Total() int64 { return s.total }

// Run executes up to budget additional iterations, polling ctx between
// peel strides and returning ctx.Err() once it is cancelled. Bounds only
// ever tighten across calls.
func (s *Solver) Run(ctx context.Context, budget int) error {
	for i := 0; i < budget; i++ {
		if err := s.iterate(ctx); err != nil {
			return err
		}
	}
	return nil
}

// stallFraction is RunAdaptive's early-stop threshold: a chunk that
// shrinks the bound gap by less than this fraction of itself ends the
// run. The bounds converge as O(1/T), so once a whole chunk buys under
// 1% the remaining budget would buy little more.
const stallFraction = 0.01

// RunAdaptive executes up to budget additional iterations in chunks,
// stopping early once the upper−lower gap stalls — the chunk's relative
// improvement falls below stallFraction — or closes entirely. The chunk
// size scales with the instance count: a tiny component (a handful of
// Ψ-instances) has nothing left to learn after an iteration or two, and
// sizing the measurement window down means it stops paying almost
// immediately, while large hypergraphs keep the amortization of longer
// chunks. It returns the number of iterations actually run.
//
// Stopping early never affects answers: the bounds are conservative
// certificates at every iteration count, so callers get the same density
// whether the gap stalled or the budget ran out (the engine-level
// equivalence suites assert exactly this).
func (s *Solver) RunAdaptive(ctx context.Context, budget int) (int, error) {
	if budget <= 0 {
		return 0, nil
	}
	chunk := s.adaptiveChunk()
	run := 0
	if sp := obs.StartFromContext(ctx, obs.SpanPreSolve); sp != nil {
		defer func() {
			sp.SetInt("iterations", int64(run))
			sp.End()
		}()
	}
	gap := s.gap()
	for run < budget {
		step := chunk
		if rem := budget - run; step > rem {
			step = rem
		}
		if err := s.Run(ctx, step); err != nil {
			return run, err
		}
		run += step
		if s.Progress != nil {
			s.Progress()
		}
		ng := s.gap()
		if ng <= 0 {
			break
		}
		if gap > 0 && gap-ng < stallFraction*gap {
			break
		}
		gap = ng
	}
	return run, nil
}

// adaptiveChunk sizes RunAdaptive's measurement window off the instance
// count.
func (s *Solver) adaptiveChunk() int {
	switch {
	case s.total <= 64:
		return 1
	case s.total <= 4096:
		return 2
	default:
		return 4
	}
}

// gap is the float bound gap used only for the adaptive stall heuristic;
// the certified comparisons stay rational.
func (s *Solver) gap() float64 {
	return s.UpperFloat() - s.lower.Float()
}

// iterate runs one Greed++ peel: vertices leave in ascending order of
// load + residual Ψ-degree, each charging its still-alive instances to its
// load, while the best residual prefix density is tracked exactly.
func (s *Solver) iterate(ctx context.Context) error {
	if s.n == 0 {
		s.iters++
		return nil
	}
	if s.keys == nil {
		s.keys = make([]int64, s.n)
	}
	for v := 0; v < s.n; v++ {
		s.keys[v] = s.loads[v] + s.deg0[v]
	}
	if s.q == nil {
		s.q = bucketq.New(s.keys)
	} else {
		s.q.Reset(s.keys)
	}
	q := s.q
	for i := range s.dead {
		s.dead[i] = false
	}
	s.order = s.order[:0]

	mu := s.total
	alive := s.n
	bestR := rational.New(mu, int64(alive))
	bestStart := 0
	for steps := 0; ; steps++ {
		if steps%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v, _, ok := q.PopMin()
		if !ok {
			break
		}
		s.order = append(s.order, int32(v))
		var destroyed int64
		s.touched = s.touched[:0]
		for _, ii := range s.inc[s.incOff[v]:s.incOff[v+1]] {
			if s.dead[ii] {
				continue
			}
			s.dead[ii] = true
			destroyed++
			for _, u := range s.insts[int(ii)*s.p : (int(ii)+1)*s.p] {
				if int(u) != v {
					if s.delta[u] == 0 {
						s.touched = append(s.touched, u)
					}
					s.delta[u]++
				}
			}
		}
		for _, u := range s.touched {
			q.DecreaseTo(int(u), q.Key(int(u))-s.delta[u], s.loads[u])
			s.delta[u] = 0
		}
		s.loads[v] += destroyed
		mu -= destroyed
		alive--
		if alive > 0 {
			if r := rational.New(mu, int64(alive)); r.Greater(bestR) {
				bestR = r
				bestStart = len(s.order)
			}
		}
	}
	s.iters++
	if bestR.Greater(s.lower) {
		s.lower = bestR
		s.lowerVerts = append(s.lowerVerts[:0], s.order[bestStart:]...)
	}
	return nil
}

// Lower returns the best certified lower bound and its witness (local
// vertex ids): the densest residual prefix over all peels so far. The
// witness slice is live solver state; callers must copy it if retained
// across Run calls.
func (s *Solver) Lower() (rational.R, []int32) { return s.lower, s.lowerVerts }

// Upper returns the certified upper bound max_v load(v) / iterations as an
// exact rational. Before any iteration it returns the trivial max initial
// degree bound (Algorithm 1's starting uc).
func (s *Solver) Upper() rational.R {
	if s.iters == 0 {
		var d int64
		for _, x := range s.deg0 {
			if x > d {
				d = x
			}
		}
		return rational.New(d, 1)
	}
	var maxLoad int64
	for _, l := range s.loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return rational.New(maxLoad, int64(s.iters))
}

// UpperFloat returns Upper rounded up to the next float64, so using it as
// a float upper bound can never clip the true optimum by a rounding error:
// big.Rat.Float64 rounds to nearest (error ≤ ½ ulp), and one Nextafter
// step clears it.
func (s *Solver) UpperFloat() float64 {
	u := s.Upper()
	if u.Den == 0 {
		return 0
	}
	f, exact := new(big.Rat).SetFrac64(u.Num, u.Den).Float64()
	if exact {
		return f
	}
	return math.Nextafter(f, math.Inf(1))
}
