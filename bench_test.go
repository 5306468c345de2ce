// Benchmarks regenerating every table and figure of the paper's
// evaluation (quick-scale; `go run ./cmd/dsdbench -run all` produces the
// full-scale tables recorded in EXPERIMENTS.md), plus micro-benchmarks of
// the substrates the algorithms are built on.
package dsd_test

import (
	"context"
	"io"
	"testing"

	dsd "repro"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/motif"
	"repro/internal/psicore"
)

// benchExpt runs one paper experiment at quick scale per iteration.
func benchExpt(b *testing.B, id string) {
	b.Helper()
	e, err := expt.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := expt.QuickConfig(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact (Section 8 + appendix).

func BenchmarkTable2Stats(b *testing.B)        { benchExpt(b, "table2") }
func BenchmarkFig8Exact(b *testing.B)          { benchExpt(b, "fig8exact") }
func BenchmarkFig8Approx(b *testing.B)         { benchExpt(b, "fig8approx") }
func BenchmarkFig9FlowShrink(b *testing.B)     { benchExpt(b, "fig9") }
func BenchmarkFig10Pruning(b *testing.B)       { benchExpt(b, "fig10") }
func BenchmarkTable3Decompose(b *testing.B)    { benchExpt(b, "table3") }
func BenchmarkTable4EMcore(b *testing.B)       { benchExpt(b, "table4") }
func BenchmarkFig11Ratio(b *testing.B)         { benchExpt(b, "fig11") }
func BenchmarkFig12ExactVsApp(b *testing.B)    { benchExpt(b, "fig12") }
func BenchmarkFig13RandomExact(b *testing.B)   { benchExpt(b, "fig13") }
func BenchmarkFig14RandomApprox(b *testing.B)  { benchExpt(b, "fig14") }
func BenchmarkTable5Densities(b *testing.B)    { benchExpt(b, "table5") }
func BenchmarkFig15PDSExact(b *testing.B)      { benchExpt(b, "fig15") }
func BenchmarkFig16PDSApprox(b *testing.B)     { benchExpt(b, "fig16") }
func BenchmarkFig17CaseStudy(b *testing.B)     { benchExpt(b, "fig17") }
func BenchmarkFig20ExtraDatasets(b *testing.B) { benchExpt(b, "fig20") }
func BenchmarkFig21PPI(b *testing.B)           { benchExpt(b, "fig21") }

// Substrate micro-benchmarks: the building blocks whose costs dominate the
// figures above.

func benchGraph() *dsd.Graph {
	return dsd.GenerateChungLu(20000, 100000, 2.5, 7)
}

func BenchmarkCliqueEnumerationTriangles(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsd.CountCliques(g, 3)
	}
}

func BenchmarkCliqueEnumeration4Cliques(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsd.CountCliques(g, 4)
	}
}

func BenchmarkKCoreDecomposition(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsd.CoreNumbers(g)
	}
}

func BenchmarkCliqueCoreDecomposition(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psicore.Decompose(g, motif.Clique{H: 3})
	}
}

func BenchmarkCoreAppTriangle(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psicore.CoreApp(g, motif.Clique{H: 3}, nil)
	}
}

func BenchmarkStarDegreesFastCounter(b *testing.B) {
	g := benchGraph()
	o := motif.Star{X: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.CountAndDegrees(g)
	}
}

func BenchmarkDiamondDegreesFastCounter(b *testing.B) {
	g := benchGraph()
	o := motif.Diamond{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.CountAndDegrees(g)
	}
}

func BenchmarkCoreExactTriangleMidSize(b *testing.B) {
	g := dsd.GenerateChungLu(5000, 25000, 2.5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CoreExact(context.Background(), g, motif.Clique{H: 3}, core.DefaultOptions(), nil, nil)
	}
}

func BenchmarkExactTriangleMidSize(b *testing.B) {
	g := dsd.GenerateChungLu(5000, 25000, 2.5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Exact(g, motif.Clique{H: 3}, false)
	}
}

func BenchmarkPeelAppTriangle(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PeelApp(g, motif.Clique{H: 3}, nil)
	}
}

// Ablation benchmarks: each pair times one design choice of the paper's
// algorithms against the alternative it improves on.

// construct+ (Algorithm 7) vs the per-instance network (Algorithm 8):
// grouping pattern instances that share a vertex set shrinks the network.
func BenchmarkPDSExactUngrouped(b *testing.B) {
	g := dsd.GenerateSSCA(400, 10, 3)
	o := motif.For(dsd.DiamondPattern())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Exact(g, o, false)
	}
}

func BenchmarkPDSExactGrouped(b *testing.B) {
	g := dsd.GenerateSSCA(400, 10, 3)
	o := motif.For(dsd.DiamondPattern())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Exact(g, o, true)
	}
}

// Serial vs parallel CoreExact on the multi-component stress instance:
// the located core has ten components whose search order (Pruning 2,
// densest component first) is the reverse of their optimum order, so the
// serial engine fully searches component after component while the
// parallel workers search them concurrently. Both take the same flow
// probes, so the gain is wall clock only and needs more than one core
// (README §Parallelism).

func benchMultiComponent() *dsd.Graph {
	return dsd.GenerateMultiCommunity(10, 30, 12, 18, 20, 1)
}

func BenchmarkCoreExactSerial(b *testing.B) {
	g := benchMultiComponent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CoreExact(context.Background(), g, motif.Clique{H: 3}, core.DefaultOptions(), nil, nil)
	}
}

func BenchmarkCoreExactParallel(b *testing.B) {
	g := benchMultiComponent()
	opts := core.DefaultOptions()
	opts.Workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CoreExact(context.Background(), g, motif.Clique{H: 3}, opts, nil, nil)
	}
}

// Parallel vs sequential clique-degree computation (§6.3).
func BenchmarkCliqueDegreesSequential(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsd.CliqueDegrees(g, 4)
	}
}

func BenchmarkCliqueDegreesParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsd.CliqueDegreesParallel(g, 4, 0)
	}
}

// Top-down CoreApp vs bottom-up full decomposition (IncApp): the window
// strategy skips the lower cores.
func BenchmarkKMaxCoreBottomUp(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.IncApp(g, motif.Clique{H: 3}, nil)
	}
}

func BenchmarkKMaxCoreTopDown(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CoreApp(g, motif.Clique{H: 3}, nil)
	}
}

// Query-anchored densest subgraph (§6.3 variant).
func BenchmarkQueryDensest(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsd.NewSolver(g).Solve(context.Background(), dsd.Query{Anchors: []int32{0, 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// The fast star counter vs the generic subgraph-isomorphism oracle
// (Appendix D ablation).
func BenchmarkStarDegreesGenericOracle(b *testing.B) {
	g := dsd.GenerateChungLu(2000, 10000, 2.5, 7)
	o := motif.Generic{P: dsd.Star(3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.CountAndDegrees(g)
	}
}

func BenchmarkStarDegreesClosedForm(b *testing.B) {
	g := dsd.GenerateChungLu(2000, 10000, 2.5, 7)
	o := motif.Star{X: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.CountAndDegrees(g)
	}
}
