// Scaling comparison: run the exact and approximation algorithms on
// growing power-law graphs and print the timing crossover the paper's
// evaluation is about — Exact grows unusable while CoreExact stays
// interactive, and CoreApp beats PeelApp by widening margins.
//
// Run with: go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"time"

	dsd "repro"
)

func main() {
	fmt.Println("h=3 (triangle densest subgraph), power-law graphs, α=2.5")
	fmt.Printf("%8s %8s  %10s %10s %10s %10s\n", "n", "m", "Exact", "CoreExact", "PeelApp", "CoreApp")
	for _, n := range []int{500, 1000, 2000, 4000, 8000} {
		g := dsd.GenerateChungLu(n, 5*n, 2.5, int64(n))
		exact := timeAlgo(g, dsd.AlgoExact)
		coreExact := timeAlgo(g, dsd.AlgoCoreExact)
		peel := timeAlgo(g, dsd.AlgoPeel)
		coreApp := timeAlgo(g, dsd.AlgoCoreApp)
		fmt.Printf("%8d %8d  %10s %10s %10s %10s\n", g.N(), g.M(),
			round(exact), round(coreExact), round(peel), round(coreApp))
	}
	fmt.Println("\nCoreExact tracks Exact's answer at a fraction of the cost;")
	fmt.Println("CoreApp computes the same core as IncApp top-down, faster.")
}

func timeAlgo(g *dsd.Graph, algo dsd.Algo) time.Duration {
	start := time.Now()
	if _, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{H: 3, Algo: algo}); err != nil {
		panic(err)
	}
	return time.Since(start)
}

func round(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }
