package flownet_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/flownet"
	"repro/internal/motif"
	"repro/internal/rational"
)

// BenchmarkEDSProbes times the Dinkelbach search of the edge-density
// component that core-exact locates on the Ca-HepTh stand-in at an
// eighth of its size: three probes on one side, the first building the
// network into a recycled arena and the next two re-capacitating it,
// each solved to its minimal min cut.
func BenchmarkEDSProbes(b *testing.B) {
	spec, err := datasets.Get("Ca-HepTh")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.LoadDiv(8)
	plan, err := core.PlanCoreExact(context.Background(), g, motif.Clique{H: 2}, core.DefaultOptions(), nil)
	if err != nil {
		b.Fatal(err)
	}
	sub := g.Induced(plan.Components[0]).Graph
	var f *flow.Network
	probes := 0
	b.ReportAllocs()
	for b.Loop() {
		sd := flownet.NewEDSSide(f, sub, nil)
		alpha := plan.Lower
		for probes = 1; ; probes++ {
			net, err := sd.Build(alpha.Num, alpha.Den)
			if err != nil {
				b.Fatal(err)
			}
			vs := net.SolveVertices()
			if len(vs) == 0 {
				break
			}
			alpha = rational.New(int64(sub.Induced(vs).M()), int64(len(vs)))
		}
		f = sd.Arena()
	}
	if probes != 3 {
		b.Fatalf("%d probes, want 3", probes)
	}
}
