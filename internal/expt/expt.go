// Package expt regenerates every table and figure of the paper's
// evaluation (Section 8 and the appendix) on the synthetic dataset
// stand-ins. Each experiment prints rows mirroring the paper's artifact;
// EXPERIMENTS.md records paper-vs-measured shape comparisons.
//
// The harness is deliberately budget-aware: cells whose flow networks or
// instance sets would exceed the configured budget are reported as "t/o",
// exactly how the paper reports Exact/PExact bars that hit the 2-5 day
// ceiling.
package expt

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/motif"
)

// Config tunes an experiment run.
type Config struct {
	// Out receives the experiment's table output.
	Out io.Writer
	// Div further divides every dataset's default scale (1 = defaults).
	Div int
	// MaxH caps the clique sizes swept (paper: 6).
	MaxH int
	// LinkBudget caps the number of instance-membership links a flow
	// network may have before the cell is skipped as "t/o".
	LinkBudget int64
	// InstanceBudget caps materialized instance counts (PExact, Nucleus).
	InstanceBudget int64
	// Quick shrinks workloads for smoke tests and benchmarks.
	Quick bool
	// Workers is the parallel arm measured by the perf suite against the
	// serial engine (0 = the reference arm of 4, matching the CI gate).
	Workers int
	// Iterative is the Query.Iterative budget of the perf suite's
	// iterative arm (0 = the engine default).
	Iterative int
}

// DefaultConfig returns the full-harness configuration.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Out:            out,
		Div:            1,
		MaxH:           6,
		LinkBudget:     30_000_000,
		InstanceBudget: 5_000_000,
	}
}

// QuickConfig returns a configuration sized for benchmarks: smaller
// datasets, h ≤ 4, tight budgets.
func QuickConfig(out io.Writer) Config {
	c := DefaultConfig(out)
	c.Div = 8
	c.MaxH = 4
	c.LinkBudget = 2_000_000
	c.InstanceBudget = 500_000
	c.Quick = true
	return c
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the harness name ("fig8exact", "table3", …).
	ID string
	// Title cites the paper artifact.
	Title string
	// Run executes the experiment and writes its table to cfg.Out.
	Run func(cfg Config) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table2", "Table 2 / Figure 18: dataset statistics", RunTable2},
		{"fig8exact", "Figure 8(a-e): efficiency of exact CDS algorithms", RunFig8Exact},
		{"fig8approx", "Figure 8(f-j): efficiency of approximation CDS algorithms", RunFig8Approx},
		{"fig9", "Figure 9: flow network sizes in CoreExact", RunFig9},
		{"fig10", "Figure 10: effect of pruning criteria in CoreExact", RunFig10},
		{"table3", "Table 3: % of time cost of core decomposition", RunTable3},
		{"table4", "Table 4: efficiency of EMcore and CoreApp", RunTable4},
		{"fig11", "Figure 11: approximation ratio", RunFig11},
		{"fig12", "Figure 12: CoreExact and CoreApp", RunFig12},
		{"fig13", "Figure 13: exact CDS algorithms on random graphs", RunFig13},
		{"fig14", "Figure 14: approximation CDS algorithms on random graphs", RunFig14},
		{"table5", "Table 5: edge/clique/pattern densities of CDS's and PDS's", RunTable5},
		{"fig15", "Figure 15: efficiency of exact PDS algorithms", RunFig15},
		{"fig16", "Figure 16: efficiency of approximation PDS algorithms", RunFig16},
		{"fig17", "Figure 17: densest subgraphs in the DBLP network", RunFig17},
		{"fig20", "Figure 20: approximation CDS on additional datasets", RunFig20},
		{"fig21", "Figure 21: PDS's in the yeast PPI network", RunFig21},
		{"perfsuite", "Perf suite: serial vs parallel engines (BENCH_*.json)", RunPerfSuite},
	}
}

// Get resolves an experiment by ID.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
}

// table is a minimal fixed-width table printer.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer, header ...string) *table {
	t := &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
	row := ""
	for i, h := range header {
		if i > 0 {
			row += "\t"
		}
		row += h
	}
	fmt.Fprintln(t.w, row)
	return t
}

func (t *table) row(cells ...string) {
	row := ""
	for i, c := range cells {
		if i > 0 {
			row += "\t"
		}
		row += c
	}
	fmt.Fprintln(t.w, row)
}

func (t *table) flush() { t.w.Flush() }

// secs formats a duration as seconds for table cells.
func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// load returns the dataset stand-in at the configured scale.
func load(cfg Config, spec datasets.Spec) *graph.Graph {
	div := spec.Div * cfg.Div
	return spec.LoadDiv(div)
}

// hRange returns the clique sizes to sweep.
func hRange(cfg Config) []int {
	var hs []int
	for h := 2; h <= cfg.MaxH; h++ {
		hs = append(hs, h)
	}
	return hs
}

// cliqueNetworkCost estimates the Algorithm-1 flow-network size for
// (g, h): the number of (h−1)-clique nodes and v→ψ links. Both counts
// bail out as soon as the budget is crossed, so an infeasible cell costs
// only the budget, not the full enumeration.
func cliqueNetworkCost(g *graph.Graph, h int, budget int64) (lambda, links int64, within bool) {
	if h == 2 {
		return 0, int64(g.M()), true
	}
	l := clique.NewLister(g)
	lambdaOK := l.ForEachStop(h-1, func([]int32) bool {
		lambda++
		return lambda <= budget
	})
	if !lambdaOK {
		return lambda, 0, false
	}
	linksOK := l.ForEachStop(h, func([]int32) bool {
		links += int64(h)
		return links <= budget
	})
	return lambda, links, linksOK
}

// motifInstanceCost counts instances for budget checks, bailing out early
// once the budget is crossed.
func motifInstanceCost(g *graph.Graph, o motif.Oracle, budget int64) (int64, bool) {
	return motif.CountWithin(o, g, budget)
}

// timeIt measures fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// seedCoreExact runs the core engine in its paper configuration: the
// located core straight to flow probes, Figure 9's networks included.
// The reproduction experiments (Figures 8-16, Tables 3-5) read it, and
// the perf suite uses it as its seed arm.
func seedCoreExact(g *graph.Graph, o motif.Oracle) *core.Result {
	opts := core.DefaultOptions()
	opts.Iterative = 0
	res, _ := core.CoreExact(context.Background(), g, o, opts, nil, nil)
	return res
}
