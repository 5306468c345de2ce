package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	dsd "repro"
	"repro/internal/service/wire"
)

// The serve-mixed traffic model. It is synthetic: no observed traffic
// exists to fit it to, so each figure is an assumption with the reason
// given here (README.md has the whole argument). One client process
// sends seeded Poisson arrivals at a fixed rate (open loop: a request is
// sent when it is due, whether or not earlier ones have returned).
const (
	// serveRate was calibrated once so that dsdd is about half busy on a
	// 2-core host.
	serveRate = 60.0 // requests per second, all kinds together
	// Shares of the schedule by kind, sized for the samples each kind's
	// figures need; the rest are Zipf pool reads. At 60/s for 20 s that
	// is about 1050 queries (ten beyond the p99), about 110 mutations
	// (ten beyond the p90) and 36 streams.
	shareFresh  = 0.03
	shareMutate = 0.09
	shareStream = 0.03
	// zipfS skews the read pool: rank r takes a share proportional to
	// (1+r)^-zipfS, so rank 0 takes about a third of reads.
	zipfS = 1.3
	// pinLag is how far behind a mutation's due time a query still pins
	// the version before it. Queries pin the version the schedule says
	// is current pinLag before they are due; a query whose version is
	// not yet acknowledged waits for it, and the wait counts in its
	// latency.
	pinLag = 250 * time.Millisecond
	// serveInserts/serveDeletes shape one mutation batch.
	serveInserts = 16
	serveDeletes = 4
)

// mutateWeights is how mutations spread over the graphs (in serveGraphs
// order): evenly, as nothing says which graph users write to most. Every
// version bump makes that graph's hot keys miss once.
var mutateWeights = []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}

type eventKind int

const (
	kindRead eventKind = iota
	kindFresh
	kindMutate
	kindStream
)

func (k eventKind) String() string {
	return [...]string{"read", "fresh", "mutate", "stream"}[k]
}

// event is one scheduled request.
type event struct {
	due   time.Duration // offset from the start of the load
	kind  eventKind
	graph int
	query wire.Query         // read, fresh, stream; Version is the pin
	mut   wire.MutateRequest // mutate
	// version is the pinned version of a query, or the version a
	// mutation must produce.
	version int64
}

// poolShapes are the read pool's query shapes; the pool is every shape
// on every graph, hottest first.
var poolShapes = []wire.Query{
	{},                         // edge, core-exact
	{H: 3},                     // triangle, core-exact
	{Algo: "peel"},             // edge, peel
	{H: 3, Algo: "core-app"},   // triangle, core-app
	{Algo: "core-app"},         // edge, core-app
	{H: 4, Algo: "inc"},        // 4-clique, inc
	{H: 3, Algo: "peel"},       // triangle, peel
	{H: 4, Algo: "core-exact"}, // 4-clique, core-exact
}

// schedule is the seeded serve-mixed load plus the library replica it
// was drawn against: one Solver per graph holding every version the
// mutations create.
type schedule struct {
	events   []event
	replicas []*dsd.Solver
	// mutateTimes are the replica's own Solver.Mutate times.
	mutateTimes []time.Duration
	// versions[g] is the number of versions graph g reaches.
	versions []int64
}

// buildSchedule draws seconds of load at serveRate from seed.
func buildSchedule(ctx context.Context, graphs []*dsd.Graph, seed int64, seconds float64) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	n := int(math.Round(serveRate * seconds))
	if n < 1 {
		n = 1
	}
	// Poisson arrivals conditioned on their count: sorted uniform times.
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	// Fixed counts per kind, shuffled over the arrivals, and within each
	// kind a fixed spread over graphs and query shapes: every seed offers
	// the same mix, in a different order and with different parameters.
	count := func(share float64) int { return int(math.Round(share * float64(n))) }
	nFresh, nMutate, nStream := count(shareFresh), count(shareMutate), count(shareStream)
	kinds := make([]eventKind, n)
	for i := range kinds {
		switch {
		case i < nFresh:
			kinds[i] = kindFresh
		case i < nFresh+nMutate:
			kinds[i] = kindMutate
		case i < nFresh+nMutate+nStream:
			kinds[i] = kindStream
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	freshSlots := shuffledCycle(nFresh, freshVariants*len(graphs), rng)
	streamSlots := shuffledCycle(nStream, 2*len(graphs), rng)
	var mutateSlots []int
	for g, w := range mutateWeights {
		for c := int(math.Round(w * float64(nMutate))); c > 0; c-- {
			mutateSlots = append(mutateSlots, g)
		}
	}
	rng.Shuffle(len(mutateSlots), func(i, j int) { mutateSlots[i], mutateSlots[j] = mutateSlots[j], mutateSlots[i] })

	s := &schedule{versions: make([]int64, len(graphs))}
	for i, g := range graphs {
		sv := dsd.NewSolver(g)
		sv.SetRetain(math.MaxInt32)
		s.replicas = append(s.replicas, sv)
		s.versions[i] = 1
	}
	mutDues := make([][]time.Duration, len(graphs))
	pin := func(g int, due time.Duration) int64 {
		ds := mutDues[g]
		k := sort.Search(len(ds), func(i int) bool { return ds[i] > due-pinLag })
		return int64(k) + 1
	}
	readSlots := zipfSlots(n-nFresh-nMutate-nStream, len(poolShapes)*len(graphs), rng)
	freshSeen := map[int]int{} // occurrences of each fresh slot so far
	for i, due := range dues {
		ev := event{due: due, kind: kinds[i]}
		switch ev.kind {
		case kindRead:
			r := readSlots[0]
			readSlots = readSlots[1:]
			ev.graph = r % len(graphs)
			ev.query = poolShapes[r/len(graphs)]
		case kindFresh:
			slot := freshSlots[0]
			ev.graph, ev.query = freshQuery(s.replicas, slot, freshSeen[slot], rng)
			freshSeen[slot]++
			freshSlots = freshSlots[1:]
		case kindStream:
			ev.graph = streamSlots[0] % len(graphs)
			ev.query = wire.Query{H: 2 + streamSlots[0]/len(graphs), Algo: "core-exact", Iterative: 1 + rng.Intn(64)}
			streamSlots = streamSlots[1:]
		case kindMutate:
			if len(mutateSlots) == 0 {
				// Rounding left the last mutation without a slot.
				mutateSlots = []int{0}
			}
			ev.graph = mutateSlots[0]
			mutateSlots = mutateSlots[1:]
			sv := s.replicas[ev.graph]
			ev.mut.Insert, ev.mut.Delete = edgeBatch(sv.Graph(), rng, serveInserts, serveDeletes)
			t := time.Now()
			d, err := sv.Mutate(ctx, dsd.Mutation{Insert: ev.mut.Insert, Delete: ev.mut.Delete})
			s.mutateTimes = append(s.mutateTimes, time.Since(t))
			if err != nil {
				return nil, fmt.Errorf("replica mutate: %w", err)
			}
			if !d.Changed() {
				return nil, fmt.Errorf("replica mutation batch changed nothing")
			}
			ev.version = int64(d.Version)
			s.versions[ev.graph] = ev.version
			mutDues[ev.graph] = append(mutDues[ev.graph], due)
		}
		if ev.kind != kindMutate {
			ev.version = pin(ev.graph, due)
			ev.query.Version = ev.version
		}
		s.events = append(s.events, ev)
	}
	return s, nil
}

// freshVariants is the number of fresh-query variants freshQuery draws.
const freshVariants = 5

// freshQuery draws a query outside the read pool for the occ-th use of
// slot (variant slot%freshVariants on graph slot/freshVariants): a
// core-exact search under a random pre-solve budget (same answer, new
// cache key), an approximation, or one of the anchored, size-bounded and
// batch-peel variants. The motif, the approximation and the anchor count
// follow occ, so every seed runs the same ones — on As-Caida an at-least
// query costs 1.2-1.8 s for triangles and 2-2.7 s for edges, and a few of
// them decide most of the load's CPU time; the seed draws the anchors,
// sizes, budgets and ε.
func freshQuery(replicas []*dsd.Solver, slot, occ int, rng *rand.Rand) (int, wire.Query) {
	g := slot / freshVariants % len(replicas)
	switch slot % freshVariants {
	case 0:
		return g, wire.Query{H: 2 + occ%3, Algo: "core-exact", Iterative: 1 + rng.Intn(64)}
	case 1:
		return g, wire.Query{H: 2 + occ%3, Algo: []string{"core-app", "peel", "inc"}[(occ+g)%3]}
	case 2:
		anchors := make([]int32, 1+occ%3)
		for i := range anchors {
			anchors[i] = int32(liveVertex(replicas[g].Graph(), rng))
		}
		return g, wire.Query{Algo: "anchored", Anchors: anchors}
	case 3:
		return g, wire.Query{H: 2 + occ%2, Algo: "at-least", AtLeast: 2 + rng.Intn(200)}
	default:
		return g, wire.Query{H: 2 + occ%2, Algo: "batch-peel", Eps: math.Round(50+rng.Float64()*950) / 1000}
	}
}

// zipfSlots returns n read-pool ranks out of k, each rank r taking its
// Zipf share of n (largest remainders round up), shuffled. Fixing the
// counts matters: a rarely read key misses after nearly every mutation
// of its graph, and on As-Caida each miss costs a full solve, so drawing
// the reads independently would make the load's CPU time a lottery of
// how often the rare keys come up.
func zipfSlots(n, k int, rng *rand.Rand) []int {
	share := make([]float64, k)
	var sum float64
	for r := range share {
		share[r] = math.Pow(1+float64(r), -zipfS)
		sum += share[r]
	}
	out := make([]int, 0, n)
	byRemainder := make([]int, k)
	for r := range share {
		share[r] *= float64(n) / sum
		for c := int(share[r]); c > 0; c-- {
			out = append(out, r)
		}
		share[r] -= math.Floor(share[r])
		byRemainder[r] = r
	}
	sort.SliceStable(byRemainder, func(i, j int) bool { return share[byRemainder[i]] > share[byRemainder[j]] })
	for i := 0; len(out) < n; i++ {
		out = append(out, byRemainder[i])
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// shuffledCycle returns n slots cycling through 0..k-1, shuffled.
func shuffledCycle(n, k int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// liveVertex draws a vertex with at least one edge.
func liveVertex(g *dsd.Graph, rng *rand.Rand) int {
	for {
		if v := rng.Intn(g.N()); g.Degree(v) > 0 {
			return v
		}
	}
}

// edgeBatch draws one mutation batch for g: nIns new edges between
// random vertices and nDel distinct existing edges.
func edgeBatch(g *dsd.Graph, rng *rand.Rand, nIns, nDel int) (ins, del [][2]int) {
	seen := map[[2]int]bool{}
	add := func(list *[][2]int, u, v int) {
		e := [2]int{min(u, v), max(u, v)}
		if u != v && !seen[e] {
			seen[e] = true
			*list = append(*list, e)
		}
	}
	for len(ins) < nIns {
		if u, v := rng.Intn(g.N()), rng.Intn(g.N()); !g.HasEdge(u, v) {
			add(&ins, u, v)
		}
	}
	for tries := 0; len(del) < nDel && tries < 64*nDel; tries++ {
		u := liveVertex(g, rng)
		nb := g.Neighbors(u)
		add(&del, u, int(nb[rng.Intn(len(nb))]))
	}
	return ins, del
}
