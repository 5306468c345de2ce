package expt

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/motif"
	"repro/internal/pattern"
)

// RunFig17 regenerates the Figure 17 case study: on the S-DBLP stand-in,
// the triangle-PDS is a tightly collaborating near-clique, while the
// 2-star-PDS is dominated by senior "hub" authors linked to many
// co-authors. The harness reports both subgraphs with the structural
// evidence (internal edge density and hub degrees).
func RunFig17(cfg Config) error {
	g := sdblp()
	fmt.Fprintf(cfg.Out, "S-DBLP stand-in: n=%d m=%d\n", g.N(), g.M())

	tri := seedCoreExact(g, motif.For(pattern.Triangle()))
	star := seedCoreExact(g, motif.For(pattern.Star(2)))

	report := func(name string, res *core.Result) {
		sub := g.Induced(res.Vertices)
		nn := sub.N()
		full := float64(sub.M()) / float64(nn*(nn-1)/2)
		// Hub structure: the share of subgraph edges covered by the top-2
		// internal-degree vertices.
		type vd struct{ v, d int }
		var ds []vd
		for v := 0; v < nn; v++ {
			ds = append(ds, vd{v, sub.Degree(v)})
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].d > ds[j].d })
		hubShare := 0.0
		if sub.M() > 0 && len(ds) >= 2 {
			hubShare = float64(ds[0].d+ds[1].d) / float64(2*sub.M())
		}
		fmt.Fprintf(cfg.Out, "%-12s |V|=%-4d ρ=%-10.3f edge-fill=%.2f top2-hub-share=%.2f\n",
			name, nn, res.Density.Float(), full, hubShare)
	}
	report("triangle", tri)
	report("2-star", star)

	// Shape assertions matching the paper's qualitative finding.
	triSub := g.Induced(tri.Vertices)
	starSub := g.Induced(star.Vertices)
	triFill := float64(triSub.M()) / float64(triSub.N()*(triSub.N()-1)/2)
	starFill := float64(starSub.M()) / float64(starSub.N()*(starSub.N()-1)/2)
	if triFill <= starFill {
		fmt.Fprintf(cfg.Out, "NOTE: expected triangle-PDS to be denser-knit than 2-star-PDS (%.2f vs %.2f)\n",
			triFill, starFill)
	} else {
		fmt.Fprintf(cfg.Out, "shape: triangle-PDS near-clique (fill %.2f) vs hub-like 2-star-PDS (fill %.2f) ✓\n",
			triFill, starFill)
	}
	return nil
}

// RunFig21 regenerates the Figure 21 case study: on a yeast-PPI stand-in
// with planted modules (near-clique, hub, cycle-rich), the PDS's of
// different patterns land on different modules, showing that patterns
// capture distinct functional subnetworks.
func RunFig21(cfg Config) error {
	g, modules := gen.PlantedPPI(1116, 2148, 7)
	names := []string{"near-clique", "hub", "cycle-rich"}
	fmt.Fprintf(cfg.Out, "yeast-PPI stand-in: n=%d m=%d modules=%d\n", g.N(), g.M(), len(modules))

	pats := []*pattern.Pattern{
		pattern.Edge(), pattern.CStar(), pattern.Book(2), pattern.KClique(4), pattern.Star(2), pattern.Diamond(),
	}
	for _, p := range pats {
		res := seedCoreExact(g, motif.For(p))
		if len(res.Vertices) == 0 {
			fmt.Fprintf(cfg.Out, "%-12s no instances\n", p.Name())
			continue
		}
		// Overlap of the PDS with each planted module.
		in := map[int32]bool{}
		for _, v := range res.Vertices {
			in[v] = true
		}
		bestName, bestOverlap := "background", 0.0
		for i, mod := range modules {
			cnt := 0
			for _, v := range mod {
				if in[v] {
					cnt++
				}
			}
			ov := float64(cnt) / float64(len(res.Vertices))
			if ov > bestOverlap {
				bestOverlap, bestName = ov, names[i]
			}
		}
		fmt.Fprintf(cfg.Out, "%-12s |V|=%-4d ρ=%-10.3f module=%s (overlap %.0f%%)\n",
			p.Name(), len(res.Vertices), res.Density.Float(), bestName, 100*bestOverlap)
	}
	return nil
}
