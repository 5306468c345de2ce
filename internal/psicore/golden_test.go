package psicore

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/testutil"
)

// decompositionFingerprint hashes every field a peel decides: core
// numbers, peel order and the best residual, whose start indexes Order.
func decompositionFingerprint(d *Decomposition) string {
	xs := make([]int64, 0, 2*len(d.Core)+4)
	xs = append(xs, d.Core...)
	for _, v := range d.Order {
		xs = append(xs, int64(v))
	}
	xs = append(xs, d.KMax, d.TotalInstances, int64(d.BestResidualStart), d.BestResidualMu)
	return testutil.Fingerprint(xs...)
}

// TestDecomposeGoldenPeelOrder pins the complete peel of seeded graphs.
// Peel order decides the witnesses CoreExact and PeelApp return, so a
// faster peel must reproduce it exactly, ties included, not only the core
// numbers. The workers=2 run checks that parallel seeding peels alike.
func TestDecomposeGoldenPeelOrder(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu", gen.ChungLu(1500, 4500, 2.3, 7)},
		{"gnm", gen.GNM(300, 1200, 11)},
	}
	want := map[string]string{
		"chunglu/edge":     "3d5512dc0471d977",
		"chunglu/triangle": "1b5a30304df9f475",
		"chunglu/4-clique": "82f16323f04ab96a",
		"chunglu/2-star":   "295083c64dbe7586",
		"chunglu/diamond":  "cb8c12feb096b620",
		"chunglu/c3-star":  "369a413a08f909e2",
		"gnm/edge":         "aecc9cb387ef13e7",
		"gnm/triangle":     "7cb021e7874a4162",
		"gnm/4-clique":     "5c1cdc200f999e91",
		"gnm/2-star":       "19a2e1ba7a85740f",
		"gnm/diamond":      "a572668d25db4dd2",
		"gnm/c3-star":      "0ad1c76b0b62bed9",
	}
	for _, tg := range graphs {
		for _, o := range testOracles {
			key := fmt.Sprintf("%s/%s", tg.name, o.Name())
			got := decompositionFingerprint(Decompose(tg.g, o))
			if par := decompositionFingerprint(DecomposeWorkers(tg.g, o, 2)); par != got {
				t.Errorf("%s: workers=2 fingerprint %s, serial %s", key, par, got)
			}
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%s: fingerprint %s, golden %s", key, got, w)
			}
		}
	}
}

// BenchmarkDecomposeTriangle times a cold serial (k,Ψ)-core decomposition
// for triangles — degree seeding plus the peel — on a power-law graph
// with shuffled ids.
func BenchmarkDecomposeTriangle(b *testing.B) {
	g := testutil.Relabel(gen.ChungLu(40000, 200000, 2.1, 1), 1)
	o := motif.Clique{H: 3}
	for b.Loop() {
		Decompose(g, o)
	}
}
