package expt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/psicore"
	"repro/internal/rational"
)

// RunTable2 regenerates the dataset-statistics table (Table 2 enriched
// with the Figure 18 columns): vertices, edges, connected components,
// diameter, power-law α, triangle kmax and (kmax,Ψ)-core size.
func RunTable2(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "n", "m", "CCs", "diam", "alpha", "kmaxΨ", "coreΨ")
	for _, spec := range datasets.All() {
		g := load(cfg, spec)
		s := g.ComputeStats()
		ca := psicore.CoreApp(g, motif.Clique{H: 3}, nil)
		t.row(spec.Name,
			fmt.Sprintf("%d", s.N), fmt.Sprintf("%d", s.M),
			fmt.Sprintf("%d", s.Components), fmt.Sprintf("%d", s.Diameter),
			fmt.Sprintf("%.3f", s.PowerLawA),
			fmt.Sprintf("%d", ca.KMax), fmt.Sprintf("%d", len(ca.Vertices)))
	}
	t.flush()
	return nil
}

// RunFig8Exact regenerates Figure 8(a-e): running time of Exact vs
// CoreExact on the five small datasets for h ∈ [2, MaxH]. Cells whose
// full-graph flow network exceeds the link budget are reported "t/o",
// mirroring the paper's bars that hit the 5-day ceiling.
func RunFig8Exact(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "Exact", "CoreExact", "speedup")
	for _, spec := range datasets.ByClass(datasets.Small) {
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			var exact, coreExact *core.Result
			exactCell := "t/o"
			_, _, within := cliqueNetworkCost(g, h, cfg.LinkBudget)
			if within {
				var err error
				if exact, err = core.Exact(g, motif.Clique{H: h}, false); err != nil {
					return err
				}
				exactCell = secs(exact.Stats.Total)
			}
			coreExact = seedCoreExact(g, motif.Clique{H: h})
			speedup := "-"
			if exact != nil {
				if exact.Density.Cmp(coreExact.Density) != 0 {
					return fmt.Errorf("fig8exact: %s h=%d: Exact %v != CoreExact %v",
						spec.Name, h, exact.Density, coreExact.Density)
				}
				speedup = fmt.Sprintf("%.1fx", exact.Stats.Total.Seconds()/coreExact.Stats.Total.Seconds())
			}
			t.row(spec.Name, fmt.Sprintf("%d", h), exactCell, secs(coreExact.Stats.Total), speedup)
		}
	}
	t.flush()
	return nil
}

// RunFig8Approx regenerates Figure 8(f-j): running time of the four
// approximation algorithms on the five large dataset stand-ins.
func RunFig8Approx(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "Nucleus", "PeelApp", "IncApp", "CoreApp")
	for _, spec := range datasets.ByClass(datasets.Large) {
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			o := motif.Clique{H: h}
			nucleusCell := "t/o"
			if total, ok := motifInstanceCost(g, o, cfg.InstanceBudget); ok && total > 0 {
				r := core.Nucleus(g, o, nil)
				nucleusCell = secs(r.Stats.Total)
			}
			peel := core.PeelApp(g, o, nil)
			inc := core.IncApp(g, o, nil)
			capp := core.CoreApp(g, o, nil)
			if inc.Density.Cmp(capp.Density) != 0 {
				return fmt.Errorf("fig8approx: %s h=%d: IncApp %v != CoreApp %v",
					spec.Name, h, inc.Density, capp.Density)
			}
			t.row(spec.Name, fmt.Sprintf("%d", h), nucleusCell,
				secs(peel.Stats.Total), secs(inc.Stats.Total), secs(capp.Stats.Total))
		}
	}
	t.flush()
	return nil
}

// RunFig9 regenerates Figure 9: the flow-network sizes across CoreExact's
// flow probes on Ca-HepTh and As-Caida. Iteration −1 is the
// network Exact would build on the entire graph; iteration 0 onwards are
// the networks CoreExact actually builds.
func RunFig9(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "iter-1(full)", "networks built (iter 0..)")
	for _, name := range []string{"Ca-HepTh", "As-Caida"} {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			full := "t/o"
			if lambda, _, ok := cliqueNetworkCost(g, h, cfg.LinkBudget); ok {
				if h == 2 {
					full = fmt.Sprintf("%d", 2+g.N())
				} else {
					full = fmt.Sprintf("%d", 2+g.N()+int(lambda))
				}
			}
			res := seedCoreExact(g, motif.Clique{H: h})
			seq := ""
			for i, sz := range res.Stats.FlowNodes {
				if i >= 7 {
					seq += " …"
					break
				}
				if i > 0 {
					seq += " "
				}
				seq += fmt.Sprintf("%d", sz)
			}
			t.row(name, fmt.Sprintf("%d", h), full, seq)
		}
	}
	t.flush()
	return nil
}

// RunFig10 regenerates Figure 10: CoreExact variants that enable only one
// pruning each, against the no-pruning base and the full algorithm.
func RunFig10(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "base", "P1", "P2", "CoreExact")
	variants := []core.Options{
		{},
		{Pruning1: true},
		{Pruning2: true},
		{Pruning1: true, Pruning2: true},
	}
	for _, name := range []string{"As-733", "Ca-HepTh"} {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			cells := make([]string, len(variants))
			var ref rational.R
			for i, opts := range variants {
				r, _ := core.CoreExact(context.Background(), g, motif.Clique{H: h}, opts, nil, nil)
				cells[i] = secs(r.Stats.Total)
				if i == 0 {
					ref = r.Density
				} else if r.Density.Cmp(ref) != 0 {
					return fmt.Errorf("fig10: %s h=%d variant %d density mismatch", name, h, i)
				}
			}
			t.row(append([]string{name, fmt.Sprintf("%d", h)}, cells...)...)
		}
	}
	t.flush()
	return nil
}

// RunTable3 regenerates Table 3: the share of CoreExact's running time
// spent in core decomposition, on As-733 and Ca-HepTh.
func RunTable3(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "decompose", "total", "share")
	for _, name := range []string{"As-733", "Ca-HepTh"} {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			r := seedCoreExact(g, motif.Clique{H: h})
			share := 100 * r.Stats.Decompose.Seconds() / r.Stats.Total.Seconds()
			t.row(name, fmt.Sprintf("%d", h), secs(r.Stats.Decompose), secs(r.Stats.Total),
				fmt.Sprintf("%.2f%%", share))
		}
	}
	t.flush()
	return nil
}

// RunTable4 regenerates Table 4: EMcore vs CoreApp computing the classical
// kmax-core on the five large dataset stand-ins.
func RunTable4(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "EMcore", "CoreApp", "agree")
	for _, spec := range datasets.ByClass(datasets.Large) {
		g := load(cfg, spec)
		var emK int32
		emT := timeIt(func() { _, emK = psicore.EMcore(g) })
		var ca *psicore.CoreAppResult
		caT := timeIt(func() { ca = psicore.CoreApp(g, motif.Clique{H: 2}, nil) })
		agree := "yes"
		if int64(emK) != ca.KMax {
			agree = fmt.Sprintf("NO (%d vs %d)", emK, ca.KMax)
		}
		t.row(spec.Name, secs(emT), secs(caT), agree)
	}
	t.flush()
	return nil
}

// RunFig11 regenerates Figure 11: theoretical ratio T = 1/|VΨ| vs the
// actual approximation ratios of PeelApp and CoreApp on Netscience and
// As-Caida (ρopt from CoreExact).
func RunFig11(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "T=1/h", "R(PeelApp)", "R(CoreApp)")
	for _, name := range []string{"Netscience", "As-Caida"} {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			o := motif.Clique{H: h}
			opt := seedCoreExact(g, motif.Clique{H: h})
			if opt.Density.IsZero() {
				t.row(name, fmt.Sprintf("%d", h), "-", "-", "-")
				continue
			}
			peel := core.PeelApp(g, o, nil)
			capp := core.CoreApp(g, o, nil)
			t.row(name, fmt.Sprintf("%d", h),
				fmt.Sprintf("%.3f", 1/float64(h)),
				fmt.Sprintf("%.3f", peel.Density.Float()/opt.Density.Float()),
				fmt.Sprintf("%.3f", capp.Density.Float()/opt.Density.Float()))
		}
	}
	t.flush()
	return nil
}

// RunFig12 regenerates Figure 12: CoreExact vs CoreApp running time.
func RunFig12(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "CoreExact", "CoreApp", "speedup")
	for _, name := range []string{"Ca-HepTh", "As-Caida"} {
		spec, err := datasets.Get(name)
		if err != nil {
			return err
		}
		g := load(cfg, spec)
		for _, h := range hRange(cfg) {
			ce := seedCoreExact(g, motif.Clique{H: h})
			ca := core.CoreApp(g, motif.Clique{H: h}, nil)
			t.row(name, fmt.Sprintf("%d", h), secs(ce.Stats.Total), secs(ca.Stats.Total),
				fmt.Sprintf("%.1fx", ce.Stats.Total.Seconds()/ca.Stats.Total.Seconds()))
		}
	}
	t.flush()
	return nil
}

func randomSpecs() []datasets.Spec { return datasets.ByClass(datasets.Random) }

// RunFig13 regenerates Figure 13: exact algorithms on the three random
// graphs. SSCA is clique-explosive by construction (unions of cliques up
// to size 100), so the flow-network budget is applied at a quarter of the
// usual ceiling — the same cells where the paper's Exact/CoreExact bars
// hit the 5-day boundary report "t/o" here.
func RunFig13(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "Exact", "CoreExact")
	budget := cfg.LinkBudget / 4
	for _, spec := range randomSpecs() {
		g := loadRandom(cfg, spec)
		for _, h := range hRange(cfg) {
			_, _, ok := cliqueNetworkCost(g, h, budget)
			exactCell, coreCell := "t/o", "t/o"
			if ok {
				r, err := core.Exact(g, motif.Clique{H: h}, false)
				if err != nil {
					return err
				}
				exactCell = secs(r.Stats.Total)
			}
			// CoreExact's networks live on the located core; on SSCA that
			// core is the largest planted clique, which carries almost all
			// instances, so its feasibility horizon is only ~4x further.
			if _, _, ok := cliqueNetworkCost(g, h, cfg.LinkBudget); ok {
				ce := seedCoreExact(g, motif.Clique{H: h})
				coreCell = secs(ce.Stats.Total)
			}
			t.row(spec.Name, fmt.Sprintf("%d", h), exactCell, coreCell)
		}
	}
	t.flush()
	return nil
}

// RunFig14 regenerates Figure 14: approximation algorithms on the three
// random graphs.
func RunFig14(cfg Config) error {
	t := newTable(cfg.Out, "dataset", "h", "PeelApp", "IncApp", "CoreApp")
	for _, spec := range randomSpecs() {
		g := loadRandom(cfg, spec)
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

// loadRandom scales random graphs down harder for exact runs: the paper's
// 100k-vertex random graphs at full SSCA density are multi-hour cells.
func loadRandom(cfg Config, spec datasets.Spec) *graph.Graph {
	div := cfg.Div * spec.Div
	if cfg.Quick {
		div *= 4
	}
	// Random graphs keep exact algorithms tractable at ~1/20 the paper's
	// size by default; full size is available with cfg.Div tuning.
	return spec.LoadDiv(div * 20)
}
