// Quickstart: build a small graph, find its edge-densest and
// triangle-densest subgraphs with the exact core-based algorithm, and
// compare with the greedy approximation.
//
// This reproduces the paper's Figure 1 observation: the densest subgraph
// under edge-density (S1) and under triangle-density (S2) can be different
// subgraphs of the same graph.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	dsd "repro"
)

func main() {
	// A graph with two candidate regions: a 4-clique rich in triangles
	// (vertices 0-3) and a larger, edge-dense but triangle-poor block
	// (vertices 4-9, a near-complete bipartite pattern).
	g := dsd.FromEdges(10, [][2]int{
		// 4-clique.
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		// Bipartite-ish block {4,5,6} × {7,8,9}.
		{4, 7}, {4, 8}, {4, 9},
		{5, 7}, {5, 8}, {5, 9},
		{6, 7}, {6, 8}, {6, 9},
		// A bridge between the regions.
		{3, 4},
	})
	fmt.Printf("graph: n=%d m=%d\n\n", g.N(), g.M())
	s := dsd.NewSolver(g)
	ctx := context.Background()

	// Exact edge-densest subgraph (EDS): the zero Query.
	eds, err := s.Solve(ctx, dsd.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EDS  (edge density):     ρ=%.3f vertices=%v\n", eds.Density.Float(), eds.Vertices)

	// Exact triangle-densest subgraph (CDS with h=3).
	cds, err := s.Solve(ctx, dsd.Query{H: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CDS  (triangle density): ρ=%.3f vertices=%v\n", cds.Density.Float(), cds.Vertices)

	// The greedy 1/|VΨ|-approximation for comparison.
	peel, err := s.Solve(ctx, dsd.Query{H: 3, Algo: dsd.AlgoPeel})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Peel (triangle approx):  ρ=%.3f vertices=%v\n", peel.Density.Float(), peel.Vertices)

	// Pattern density: the densest subgraph for the 2-star pattern.
	star, err := s.Solve(ctx, dsd.Query{Pattern: dsd.Star(2)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PDS  (2-star density):   ρ=%.3f vertices=%v\n", star.Density.Float(), star.Vertices)

	// Core decomposition: the (k,Ψ)-core numbers behind the algorithms.
	cores, kmax := dsd.CliqueCoreNumbers(g, 3)
	fmt.Printf("\ntriangle-core numbers: %v (kmax=%d)\n", cores, kmax)
}
