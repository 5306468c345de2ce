package datasets

import "testing"

// BenchmarkLoadStandIn generates the DBLP stand-in at paper scale (Div 1),
// the graph the solve-decompose workload loads: the Chung–Lu draws and
// the three plants in one Builder, built once.
func BenchmarkLoadStandIn(b *testing.B) {
	spec, err := Get("DBLP")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		spec.LoadDiv(1)
	}
}
