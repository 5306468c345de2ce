package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/pattern"
)

// sdblp builds the S-DBLP stand-in: the co-authorship subgraph of the
// paper's case study (|V|=478, |E|=1086 in the paper; the generator is
// tuned to land in that region).
func sdblp() *graph.Graph {
	return gen.Collaboration(478, 260, 6, 42)
}

// RunTable5 regenerates Table 5: exact densities ρopt of the CDS for each
// clique size and of the PDS for 2-star and diamond, compared against the
// corresponding density measured on the EDS. The plain stand-ins (near-
// clique plant only) are used so pattern instance counts stay in the
// regime the paper's exact algorithms handle.
func RunTable5(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "motif", "ρopt", "ρ(EDS,Ψ)")
	specsmall := []string{"Yeast", "Netscience", "As-733"}
	type namedGraph struct {
		name string
		g    *graph.Graph
	}
	graphs := []namedGraph{{"S-DBLP", sdblp()}}
	for _, name := range specsmall {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		graphs = append(graphs, namedGraph{name, spec.LoadPlain(spec.Div * cfg.Div)})
	}
	for _, ng := range graphs {
		eds := seedCoreExact(ng.g, motif.Clique{H: 2})
		// Clique motifs.
		for _, h := range hRange(cfg) {
			o := motif.Clique{H: h}
			opt := seedCoreExact(ng.g, motif.Clique{H: h})
			edsDen, _ := densityOn(ng.g, o, eds.Vertices)
			t.row(ng.name, o.Name(), fmt.Sprintf("%.3f", opt.Density.Float()), edsDen)
		}
		// Pattern motifs: 2-star and diamond (the Table 5 columns).
		for _, p := range []*pattern.Pattern{pattern.Star(2), pattern.Diamond()} {
			o := motif.For(p)
			opt := seedCoreExact(ng.g, motif.For(p))
			edsDen, _ := densityOn(ng.g, o, eds.Vertices)
			t.row(ng.name, p.Name(), fmt.Sprintf("%.3f", opt.Density.Float()), edsDen)
		}
	}
	t.flush()
	return nil
}

// densityOn formats the Ψ-density of the subgraph induced by vs.
func densityOn(g *graph.Graph, o motif.Oracle, vs []int32) (string, float64) {
	if len(vs) == 0 {
		return "0.000", 0
	}
	sub := g.Induced(vs)
	mu := motif.Count(o, sub.Graph)
	f := float64(mu) / float64(len(vs))
	return fmt.Sprintf("%.3f", f), f
}

// RunFig15 regenerates Figure 15: PExact vs CorePExact on As-733 and
// Ca-HepTh over the seven Figure-7 patterns. Cells whose instance sets
// blow the budget are "t/o" (the paper's 3-day ceiling).
func RunFig15(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "pattern", "PExact", "CorePExact", "speedup")
	names := []string{"As-733", "Ca-HepTh"}
	if cfg.Quick {
		names = names[:1]
	}
	for _, name := range names {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		g := spec.LoadPlain(spec.Div * cfg.Div)
		for _, p := range pattern.Figure7() {
			o := motif.For(p)
			// PExact materializes every instance in each of ~log n flow
			// networks on the whole graph; CorePExact pays one peeling
			// pass plus networks on the (much smaller) located core, so
			// its feasibility horizon is ~an order of magnitude further —
			// exactly the paper's Figure 15 story.
			total, withinLoose := motifInstanceCost(g, o, cfg.InstanceBudget*8)
			if !withinLoose {
				t.row(name, p.Name(), "t/o", "t/o", "-")
				continue
			}
			var pexact *core.Result
			pexactCell := "t/o"
			if total <= cfg.InstanceBudget {
				var err error
				if pexact, err = core.Exact(g, motif.For(p), false); err != nil {
					return err
				}
				pexactCell = secs(pexact.Stats.Total)
			}
			cpe := seedCoreExact(g, motif.For(p))
			speedup := "-"
			if pexact != nil {
				if pexact.Density.Cmp(cpe.Density) != 0 {
					return fmt.Errorf("fig15: %s %s: PExact %v != CorePExact %v",
						name, p.Name(), pexact.Density, cpe.Density)
				}
				speedup = fmt.Sprintf("%.1fx", pexact.Stats.Total.Seconds()/cpe.Stats.Total.Seconds())
			}
			t.row(name, p.Name(), pexactCell, secs(cpe.Stats.Total), speedup)
		}
	}
	t.flush()
	return nil
}

// RunFig16 regenerates Figure 16: approximation PDS algorithms on the
// DBLP and Cit-Patents stand-ins over the Figure-7 patterns.
func RunFig16(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "pattern", "PeelApp", "IncApp", "CoreApp")
	names := []string{"DBLP", "Cit-Patents"}
	if cfg.Quick {
		names = names[:1]
	}
	for _, name := range names {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		div := spec.Div * cfg.Div
		// Generic-pattern peeling is instance-enumeration bound; the
		// harness runs these datasets at an extra 4x reduction on the
		// plain stand-ins (documented in EXPERIMENTS.md).
		g := spec.LoadPlain(div * 4)
		for _, p := range pattern.Figure7() {
			o := motif.For(p)
			// The instance budget only gates generic-oracle patterns:
			// peeling with the Appendix-D closed-form counters (stars,
			// diamond) never materializes instances, so huge instance
			// counts are irrelevant to its cost — that asymmetry is the
			// point of the optimized patterns in the paper's Figure 16.
			if _, generic := o.(motif.Generic); generic {
				if _, ok := motifInstanceCost(g, o, cfg.InstanceBudget*8); !ok {
					t.row(name, p.Name(), "t/o", "t/o", "t/o")
					continue
				}
			}
			peel := core.PeelApp(g, o, nil)
			inc := core.IncApp(g, o, nil)
			capp := core.CoreApp(g, o, nil)
			if inc.Density.Cmp(capp.Density) != 0 {
				return fmt.Errorf("fig16: %s %s: IncApp %v != CoreApp %v",
					name, p.Name(), inc.Density, capp.Density)
			}
			t.row(name, p.Name(), secs(peel.Stats.Total), secs(inc.Stats.Total), secs(capp.Stats.Total))
		}
	}
	t.flush()
	return nil
}

// RunFig20 regenerates Figure 20 (Appendix E): approximation CDS
// algorithms on the Flickr, Google and Foursquare stand-ins.
func RunFig20(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "PeelApp", "IncApp", "CoreApp")
	for _, spec := range datasets.ByClass(datasets.Extra) {
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			o := motif.Clique{H: h}
			peel := core.PeelApp(g, o, nil)
			inc := core.IncApp(g, o, nil)
			capp := core.CoreApp(g, o, nil)
			t.row(spec.Name, fmt.Sprintf("%d", h),
				secs(peel.Stats.Total), secs(inc.Stats.Total), secs(capp.Stats.Total))
		}
	}
	t.flush()
	return nil
}
