package gen

import "testing"

// BenchmarkChungLu generates a graph the size and degree exponent of the
// paper's DBLP dataset (425,957 vertices, 1,049,866 edges, α = 2.35):
// the cumulative table, 2.1M guide-table draws and one CSR build.
func BenchmarkChungLu(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		ChungLu(425957, 1049866, 2.3457, 201)
	}
}
