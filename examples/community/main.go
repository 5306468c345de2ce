// Community detection in a collaboration network (the paper's Figure 17
// case study): on a DBLP-style co-authorship graph, the triangle-densest
// subgraph finds a tightly collaborating research group, while the
// 2-star-densest subgraph finds senior "hub" authors with their students.
//
// Run with: go run ./examples/community
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	dsd "repro"
)

func main() {
	// 478 authors, 260 papers with 2..6 authors each; author popularity is
	// Zipf-skewed so a few senior authors join many papers.
	g := dsd.GenerateCollaboration(478, 260, 6, 42)
	fmt.Printf("co-authorship network: %d authors, %d edges\n\n", g.N(), g.M())
	s := dsd.NewSolver(g)
	ctx := context.Background()

	show := func(title string, res *dsd.Result) {
		sub := g.Induced(res.Vertices)
		// Sort members by their degree inside the subgraph: hubs first.
		type member struct{ id, deg int }
		ms := make([]member, sub.N())
		for v := 0; v < sub.N(); v++ {
			ms[v] = member{int(sub.Orig[v]), sub.Degree(v)}
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].deg > ms[j].deg })
		fill := 0.0
		if sub.N() > 1 {
			fill = float64(2*sub.M()) / float64(sub.N()*(sub.N()-1))
		}
		fmt.Printf("%s\n  |V|=%d  ρ=%.3f  internal edge fill=%.2f\n  top members (author:internal-degree):",
			title, sub.N(), res.Density.Float(), fill)
		for i, m := range ms {
			if i == 8 {
				break
			}
			fmt.Printf(" %d:%d", m.id, m.deg)
		}
		fmt.Println()
	}

	tri, err := s.Solve(ctx, dsd.Query{Pattern: dsd.Clique(3)})
	if err != nil {
		log.Fatal(err)
	}
	show("triangle-PDS — a tight research group (everyone co-authors with everyone):", tri)

	star, err := s.Solve(ctx, dsd.Query{Pattern: dsd.Star(2)})
	if err != nil {
		log.Fatal(err)
	}
	show("\n2-star-PDS — senior hubs and their co-authors:", star)

	// The approximation algorithms reach nearly the same density in a
	// fraction of the time on large networks.
	approx, err := s.Solve(ctx, dsd.Query{Pattern: dsd.Clique(3), Algo: dsd.AlgoCoreApp})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCoreApp approximation of the triangle-PDS: ρ=%.3f (ratio %.2f, guarantee ≥ %.2f)\n",
		approx.Density.Float(),
		approx.Density.Float()/tri.Density.Float(),
		1.0/3)
}
