package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// This file keeps the generators' earlier, slower forms as references:
// ER's per-edge row walk from u = 0 and ChungLu's binary search over the
// whole cumulative table. The fast forms must reproduce them exactly.

// edgeFromIndex maps a linear index in [0, n(n-1)/2) to the pair (u,v)
// with u < v in lexicographic order, walking the rows from u = 0.
func edgeFromIndex(idx int64, n int) (int, int) {
	u := 0
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + int(idx)
}

// referenceER is ER's geometric-skipping branch with edgeFromIndex.
func referenceER(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	logq := math.Log(1 - p)
	var i int64
	total := int64(n) * int64(n-1) / 2
	for {
		gap := int64(math.Log(1-rng.Float64())/logq) + 1
		i += gap
		if i > total {
			break
		}
		u, v := edgeFromIndex(i-1, n)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// searchCum is the smallest i in [0, n) with cum[i+1] ≥ x, or n.
func searchCum(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid+1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// referenceChungLuEdges is ChungLuEdges with a separate weight array and
// a full binary search per endpoint.
func referenceChungLuEdges(n, m int, alpha float64, seed int64, emit func(u, v int)) {
	rng := rand.New(rand.NewSource(seed))
	if alpha <= 1.5 {
		alpha = 1.5
	}
	w := make([]float64, n)
	var sum float64
	exp := -1.0 / (alpha - 1)
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), exp)
		sum += w[i]
	}
	for i := range w {
		w[i] *= 2 * float64(m) / sum
	}
	capw := math.Sqrt(2 * float64(m))
	for i := range w {
		if w[i] > capw {
			w[i] = capw
		}
	}
	cum := make([]float64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + w[i]
	}
	total := cum[n]
	draw := func() int { return searchCum(cum, rng.Float64()*total) }
	for i := 0; i < m; i++ {
		emit(draw(), draw())
	}
}

func TestEdgeFromIndexBijective(t *testing.T) {
	n := 7
	seen := map[[2]int]bool{}
	total := int64(n * (n - 1) / 2)
	for i := int64(0); i < total; i++ {
		u, v := edgeFromIndex(i, n)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("edgeFromIndex(%d) = (%d,%d) invalid", i, u, v)
		}
		key := [2]int{u, v}
		if seen[key] {
			t.Fatalf("edgeFromIndex(%d) duplicates (%d,%d)", i, u, v)
		}
		seen[key] = true
	}
}

func edgeList(g *graph.Graph) [][2]int {
	var out [][2]int
	g.Edges(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

func TestERMatchesReference(t *testing.T) {
	type er struct {
		n int
		p float64
	}
	var cases []er
	for _, n := range []int{0, 1, 2, 3, 7, 100, 500} {
		for _, p := range []float64{0.0005, 0.01, 0.2, 0.9} {
			cases = append(cases, er{n, p})
		}
	}
	cases = append(cases, er{5000, 0.002})
	for _, c := range cases {
		for _, seed := range []int64{1, 2, 3} {
			got, want := ER(c.n, c.p, seed), referenceER(c.n, c.p, seed)
			if got.N() != want.N() || !slices.Equal(edgeList(got), edgeList(want)) {
				t.Fatalf("ER(%d, %v, %d): n=%d m=%d, reference n=%d m=%d",
					c.n, c.p, seed, got.N(), got.M(), want.N(), want.M())
			}
		}
	}
}

// TestChungLuEdgesMatchReference requires the guide-table draws to give
// the reference's endpoint sequence, pair for pair. The grid covers one-
// and two-vertex graphs, α at and below the 1.5 clamp, and graphs dense
// enough that the sqrt(2m) cap binds on the heaviest vertices.
func TestChungLuEdgesMatchReference(t *testing.T) {
	type pair struct{ u, v int }
	cases := []struct {
		n, m  int
		alpha float64
	}{
		{1, 10, 2.5},
		{2, 50, 2.5},
		{2, 50, 1.2},
		{3, 40, 7},
		{50, 2000, 2},   // capped
		{50, 2000, 1.5}, // clamped and capped
		{200, 150, 1.1}, // clamped
		{1000, 3000, 2.35},
		{5000, 20000, 2.9},
		{20000, 60000, 63.7},
		{20000, 60000, 2.0},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 7, 201} {
			var got, want []pair
			ChungLuEdges(c.n, c.m, c.alpha, seed, func(u, v int) { got = append(got, pair{u, v}) })
			referenceChungLuEdges(c.n, c.m, c.alpha, seed, func(u, v int) { want = append(want, pair{u, v}) })
			if len(got) != len(want) {
				t.Fatalf("ChungLuEdges(%d, %d, %v, %d): %d pairs, reference %d",
					c.n, c.m, c.alpha, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ChungLuEdges(%d, %d, %v, %d): pair %d = %v, reference %v",
						c.n, c.m, c.alpha, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGuideTableMatchesSearch checks find against the full search on
// tables with runs of equal entries (zero weights), at every entry, every
// bucket threshold and the floats either side of each. find must be exact
// whatever bucket it first estimates, so each table is also searched with
// the estimate skewed low and high, which leaves the correction against
// the recomputed thresholds to find the bucket.
func TestGuideTableMatchesSearch(t *testing.T) {
	tables := [][]float64{
		{0, 1},
		{0, 0, 1},
		{0, 1, 1},
		{0, 0, 0, 3, 3, 3, 4, 4, 10},
		{0, 5, 5, 5, 5, 5, 5, 5, 6},
		{0, 0.1, 0.3, 0.6, 1.0, 1.0, 1.0, 7.3},
	}
	// A long power-law table with a zero-weight run in the middle.
	long := make([]float64, 2001)
	for i := 0; i < 2000; i++ {
		w := 1 / float64(i+1) / float64(i+1)
		if i >= 900 && i < 1100 {
			w = 0
		}
		long[i+1] = long[i] + w
	}
	tables = append(tables, long)
	// Tables whose entries sit on, or one float either side of, their own
	// bucket thresholds, where a bucket estimate off by one would return
	// a neighbouring index.
	for _, n := range []int{3, 7, 10, 49, 1000} {
		for _, total := range []float64{1, 0.7, 3, 1e6 / 7, 2099732} {
			step := total / float64(n)
			for _, dir := range []float64{-1, 0, 1} {
				cum := make([]float64, n+1)
				for i := 1; i < n; i++ {
					th := float64(i) * step
					cum[i] = math.Nextafter(th, th+dir)
					if dir == 0 {
						cum[i] = th
					}
				}
				cum[n] = total
				tables = append(tables, cum)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for ti, cum := range tables {
		g := newGuideTable(cum)
		n, total := len(cum)-1, cum[len(cum)-1]
		xs := []float64{0, total, math.Nextafter(total, 0)}
		for _, v := range cum {
			xs = append(xs, v, math.Nextafter(v, -1), math.Nextafter(v, math.Inf(1)))
		}
		for j := 0; j <= n; j++ {
			th := float64(j) * g.step
			xs = append(xs, th, math.Nextafter(th, -1), math.Nextafter(th, math.Inf(1)))
		}
		for range 1000 {
			xs = append(xs, rng.Float64()*total)
		}
		inv := g.inv
		for _, skew := range []float64{1, 0.5, 1 - 1e-9, 1 + 1e-9, 1.5} {
			g.inv = inv * skew
			for _, x := range xs {
				if x < 0 || x > total {
					continue
				}
				if got, want := g.find(x), searchCum(cum, x); got != want {
					t.Fatalf("table %d, estimate skew %v: find(%v) = %d, search = %d", ti, skew, x, got, want)
				}
			}
		}
	}
}

// TestPlantedPPIFingerprint pins PlantedPPI, which adds the Chung–Lu
// draws and its modules to one Builder, to the graph the two-build form
// produced.
func TestPlantedPPIFingerprint(t *testing.T) {
	g, _ := PlantedPPI(800, 1600, 3)
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(g.N()))
	h.Write(buf[:4])
	g.Edges(func(u, v int) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		h.Write(buf[:])
	})
	const want = "bb8c9f9cfe675a4422f11140fad60981d6cec564d1d7439eb1372652ccaedb09"
	if got := hex.EncodeToString(h.Sum(nil)); g.M() != 1692 || got != want {
		t.Fatalf("PlantedPPI(800, 1600, 3): m=%d sha256=%s, want m=1692 sha256=%s", g.M(), got, want)
	}
}
