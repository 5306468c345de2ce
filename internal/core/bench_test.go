package core

import (
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/motif"
	"repro/internal/psicore"
)

// BenchmarkPeelFamily times the peel-family approximations cold, each
// computing its own state, on the As-Caida stand-in for edges and
// triangles: PeelApp (one bucket peel), PeelAppAtLeast at a size bound
// above the best residual's, so the replay along the peel order runs
// too, and BatchPeel at ε = 0.5.
func BenchmarkPeelFamily(b *testing.B) {
	spec, err := datasets.Get("As-Caida")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Load()
	for _, h := range []int{2, 3} {
		o := motif.Clique{H: h}
		dec := psicore.Decompose(g, o)
		k := g.N() - dec.BestResidualStart + 1
		b.Run(fmt.Sprintf("h=%d/peel", h), func(b *testing.B) {
			for b.Loop() {
				PeelApp(g, o, nil)
			}
		})
		b.Run(fmt.Sprintf("h=%d/at-least", h), func(b *testing.B) {
			for b.Loop() {
				if _, err := PeelAppAtLeast(g, o, k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("h=%d/batch-peel", h), func(b *testing.B) {
			for b.Loop() {
				if _, err := BatchPeel(g, o, 0.5, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
