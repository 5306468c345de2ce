package kcore

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// TestDecomposeGoldenPeelOrder pins the full peel of seeded graphs: core
// numbers and peel order, which is the degeneracy order every clique
// enumeration walks, so it decides the order cliques are listed in.
func TestDecomposeGoldenPeelOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"chunglu-7", gen.ChungLu(3000, 12000, 2.3, 7), "227301d33f49c447"},
		{"chunglu-8", gen.ChungLu(3000, 12000, 2.3, 8), "7e7face8889200b4"},
		{"gnm", gen.GNM(2000, 8000, 3), "1421354c91f70a80"},
	} {
		g := tc.g
		d := Decompose(g)
		xs := make([]int64, 0, 2*g.N()+1)
		for v := range d.Core {
			xs = append(xs, int64(d.Core[v]))
		}
		for _, v := range d.Order {
			xs = append(xs, int64(v))
		}
		xs = append(xs, int64(d.KMax))
		if got := testutil.Fingerprint(xs...); got != tc.want {
			t.Errorf("%s: fingerprint %s, golden %s", tc.name, got, tc.want)
		}
	}
}
