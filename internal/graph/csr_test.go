package graph_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// relabelled returns a Builder holding g's edges with every vertex
// renamed by a random permutation, about a quarter of them added a
// second time in the other orientation.
func relabelled(g *graph.Graph, rng *rand.Rand) *graph.Builder {
	perm := rng.Perm(g.N())
	b := graph.NewBuilder(g.N())
	g.Edges(func(u, v int) {
		b.AddEdge(perm[u], perm[v])
		if rng.Intn(4) == 0 {
			b.AddEdge(perm[v], perm[u])
		}
	})
	return b
}

// lists returns a deep copy of every adjacency list of g.
func lists(g *graph.Graph) [][]int32 {
	out := make([][]int32, g.N())
	for v := range out {
		out[v] = slices.Clone(g.Neighbors(v))
	}
	return out
}

// sameCSR reports whether a and b hold identical offsets and neighbor
// arrays.
func sameCSR(a, b *graph.Graph) bool {
	ao, an := graph.CSR(a)
	bo, bn := graph.CSR(b)
	return slices.Equal(ao, bo) && slices.Equal(an, bn)
}

// TestBuildMatchesReference requires the counting build to produce the
// offsets and neighbor arrays of the sort-based reference builder, arc
// for arc, on relabelled generator graphs and on inputs with duplicates,
// self-loops and isolated vertices.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dirty := graph.NewBuilder(60) // ids 40..59 stay isolated
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		dirty.AddEdge(u, v)
		switch rng.Intn(3) {
		case 0:
			dirty.AddEdge(v, u)
		case 1:
			dirty.AddEdge(u, u)
		}
	}
	isolated := graph.NewBuilder(7)
	isolated.AddEdge(2, 5)
	for name, b := range map[string]*graph.Builder{
		"chunglu":        relabelled(gen.ChungLu(3000, 12000, 2.3, 1), rng),
		"gnm":            relabelled(gen.GNM(2000, 8000, 2), rng),
		"multicommunity": relabelled(gen.MultiCommunity(8, 25, 10, 15, 18, 1), rng),
		"dirty":          dirty,
		"isolated":       isolated,
		"empty":          graph.NewBuilder(0),
		"edgeless":       graph.NewBuilder(5),
	} {
		g := b.Build()
		off, nbr := graph.CSR(g)
		roff, rnbr := graph.ReferenceBuild(b)
		if !slices.Equal(off, roff) || !slices.Equal(nbr, rnbr) {
			t.Errorf("%s: counting build differs from the reference", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNeighborsAppendSafe appends to every Neighbors result of a built,
// an induced, a live mutated and a frozen graph, and requires each graph
// to be unchanged.
func TestNeighborsAppendSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.GNM(200, 800, 4)
	mt := graph.NewMutator(g)
	for i := 0; i < 100; i++ {
		mt.Insert(rng.Intn(220), rng.Intn(220)) // grows past 200
		mt.Delete(rng.Intn(200), rng.Intn(200))
	}
	frozen := mt.Freeze()
	for name, h := range map[string]*graph.Graph{
		"built":   g,
		"induced": g.Induced([]int32{5, 1, 9, 120, 77, 3, 150, 42}).Graph,
		"live":    mt.Graph(),
		"frozen":  frozen,
	} {
		before := lists(h)
		for v := 0; v < h.N(); v++ {
			l := h.Neighbors(v)
			if cap(l) != len(l) {
				t.Fatalf("%s: Neighbors(%d) has cap %d > len %d", name, v, cap(l), len(l))
			}
			l = append(l, -1, -2)
			l[0] = -3
		}
		if !slices.EqualFunc(before, lists(h), slices.Equal) {
			t.Errorf("%s: appending to Neighbors changed the graph", name)
		}
	}
}

// TestZeroGraph: the zero Graph is the empty graph.
func TestZeroGraph(t *testing.T) {
	var g graph.Graph
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("zero graph: n=%d m=%d maxdeg=%d", g.N(), g.M(), g.MaxDegree())
	}
	g.Edges(func(u, v int) { t.Fatalf("zero graph has edge %d-%d", u, v) })
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := g.Clone(); c.N() != 0 || c.Validate() != nil {
		t.Fatal("clone of the zero graph is not empty and valid")
	}
	if sub := g.Induced(nil); sub.N() != 0 || sub.Validate() != nil {
		t.Fatal("induced subgraph of the zero graph is not empty and valid")
	}
	if len(g.ConnectedComponents()) != 0 {
		t.Fatal("zero graph has components")
	}
	mt := graph.NewMutator(&g)
	mt.Insert(0, 2)
	if f := mt.Freeze(); f.N() != 3 || f.M() != 1 || f.Validate() != nil {
		t.Fatalf("zero graph plus one edge: n=%d m=%d", f.N(), f.M())
	}
}

// TestMutatorCopyOnWriteConcurrent starts two Mutators from one parent
// and applies a different batch through each, inserts growing the vertex
// set included, while other goroutines read the parent. Each frozen
// graph must equal a fresh build of its edge set, and the parent must
// stay unchanged. Run it under -race.
func TestMutatorCopyOnWriteConcurrent(t *testing.T) {
	parent := relabelled(gen.ChungLu(400, 1600, 2.3, 5), rand.New(rand.NewSource(3))).Build()
	want := lists(parent)
	wantOff, wantNbr := graph.CSR(parent)
	wantOff, wantNbr = slices.Clone(wantOff), slices.Clone(wantNbr)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for v := 0; v < parent.N(); v++ {
					if !slices.Equal(parent.Neighbors(v), want[v]) {
						t.Errorf("parent list of %d changed under a mutation", v)
						return
					}
				}
			}
		}()
	}

	const batches = 2
	frozen := make([]*graph.Graph, batches)
	models := make([]map[[2]int]bool, batches)
	var muts sync.WaitGroup
	for i := range batches {
		muts.Add(1)
		go func() {
			defer muts.Done()
			rng := rand.New(rand.NewSource(int64(10 + i)))
			model := map[[2]int]bool{}
			parent.Edges(func(u, v int) { model[[2]int{u, v}] = true })
			mt := graph.NewMutator(parent)
			for k := 0; k < 600; k++ {
				live := mt.Graph()
				if rng.Intn(2) == 0 {
					// Delete an edge of the live graph, when u has one.
					u := rng.Intn(live.N())
					nb := live.Neighbors(u)
					if len(nb) == 0 {
						continue
					}
					v := int(nb[rng.Intn(len(nb))])
					if !mt.Delete(u, v) {
						t.Errorf("batch %d: Delete(%d,%d) of a live edge reported no change", i, u, v)
						return
					}
					delete(model, [2]int{min(u, v), max(u, v)})
					continue
				}
				u, v := rng.Intn(live.N()+3), rng.Intn(live.N()+3) // may grow
				key := [2]int{min(u, v), max(u, v)}
				if got := mt.Insert(u, v); got != (u != v && !model[key]) {
					t.Errorf("batch %d: Insert(%d,%d) = %v, edge present %v", i, u, v, got, model[key])
					return
				}
				if u != v {
					model[key] = true
				}
			}
			frozen[i], models[i] = mt.Freeze(), model
		}()
	}
	muts.Wait()
	close(stop)
	readers.Wait()

	for i, f := range frozen {
		if f == nil {
			continue // the batch already failed
		}
		b := graph.NewBuilder(f.N())
		for e := range models[i] {
			b.AddEdge(e[0], e[1])
		}
		if ref := b.Build(); !sameCSR(f, ref) || f.M() != ref.M() {
			t.Errorf("batch %d: frozen graph differs from a fresh build of its edge set", i)
		}
		if graph.Overlaid(f) {
			t.Errorf("batch %d: frozen graph carries an overlay", i)
		}
		if f.N() <= parent.N() {
			t.Errorf("batch %d: vertex set did not grow (n=%d)", i, f.N())
		}
	}
	if off, nbr := graph.CSR(parent); !slices.Equal(off, wantOff) || !slices.Equal(nbr, wantNbr) {
		t.Fatal("parent arrays changed")
	}
}
