package dsd_test

import (
	"context"
	"fmt"

	dsd "repro"
)

// A Solver answers any number of queries on one graph; repeated queries
// with the same motif reuse the memoized Ψ-state (the second triangle
// query below skips the core decomposition entirely).
func ExampleSolver() {
	g := dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
	s := dsd.NewSolver(g)
	ctx := context.Background()

	cold, err := s.Solve(ctx, dsd.Query{H: 3}) // triangle-densest, CoreExact
	if err != nil {
		panic(err)
	}
	warm, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoPeel}) // same Ψ, different algorithm
	if err != nil {
		panic(err)
	}
	fmt.Printf("exact=%.2f peel=%.2f reused=%v\n",
		cold.Density.Float(), warm.Density.Float(), warm.Stats.ReusedDecomposition)
	// Output: exact=0.40 peel=0.40 reused=true
}

// A Query expresses every supported problem in one value; the algorithm
// is inferred from the variant fields when left empty.
func ExampleQuery() {
	g := dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	s := dsd.NewSolver(g)
	ctx := context.Background()

	// Anchored: densest subgraph containing vertex 4 (infers AlgoAnchored).
	anchored, err := s.Solve(ctx, dsd.Query{Anchors: []int32{4}})
	if err != nil {
		panic(err)
	}
	// Size-constrained: densest residual with ≥ 4 vertices.
	atLeast, err := s.Solve(ctx, dsd.Query{AtLeast: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("anchored=%.2f at-least-4=%.2f\n", anchored.Density.Float(), atLeast.Density.Float())
	// Output: anchored=1.00 at-least-4=1.00
}

// The bowtie graph: two triangles sharing vertex 2. Its triangle-densest
// subgraph is the whole bowtie (2 triangles over 5 vertices).
func ExampleSolver_Solve() {
	g := dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
	res, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("density=%.2f vertices=%v\n", res.Density.Float(), res.Vertices)
	// Output: density=0.40 vertices=[0 1 2 3 4]
}

// Any connected pattern can stand in for the clique.
func ExampleSolver_Solve_pattern() {
	g := dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
	p, err := dsd.PatternByName("2-star")
	if err != nil {
		panic(err)
	}
	res, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{Pattern: p})
	if err != nil {
		panic(err)
	}
	fmt.Printf("2-star density=%.2f\n", res.Density.Float())
	// Output: 2-star density=2.00
}

func ExampleCliqueCoreNumbers() {
	g := dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
	cores, kmax := dsd.CliqueCoreNumbers(g, 3)
	fmt.Println(cores, kmax)
	// Output: [1 1 1 1 1] 1
}

func ExampleQuery_anchored() {
	// Densest subgraph forced to contain vertex 4 (on the sparse side).
	g := dsd.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	res, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{Anchors: []int32{4}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("density=%.2f contains 4: %v\n", res.Density.Float(), contains(res.Vertices, 4))
	// Output: density=1.00 contains 4: true
}

func contains(vs []int32, want int32) bool {
	for _, v := range vs {
		if v == want {
			return true
		}
	}
	return false
}
