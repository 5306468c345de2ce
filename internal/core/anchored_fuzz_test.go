package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kcore"
)

// FuzzQueryDensest checks the anchored §6.3 variant against its own
// brute-force oracle. On a graph of at most 10 vertices (an edge bitmask
// over the vertex pairs) and a non-empty anchor set (a vertex bitmask;
// empty means vertex 0), QueryDensest must return a superset of the
// anchors whose density is the brute-force optimum over such supersets,
// and must answer the same with a precomputed k-core decomposition.
func FuzzQueryDensest(f *testing.F) {
	f.Add(uint8(5), uint64(0b1111111), uint16(0b10000))             // triangle + path, anchor the tail
	f.Add(uint8(7), uint64(0x3f_ffff), uint16(0b1000001))           // K4 with a tail, anchors on both ends
	f.Add(uint8(10), uint64(0x1f3a_5c7e_9b2d_4f61), uint16(0x0204)) // random, two anchors
	f.Add(uint8(9), uint64(0), uint16(0x1ff))                       // edgeless, every vertex anchored
	f.Add(uint8(10), uint64(0x1f_ffff_ffff), uint16(0x300))         // dense, anchors in a sparse part
	f.Fuzz(func(t *testing.T, n uint8, mask uint64, anchors uint16) {
		nv := 1 + int(n)%10
		var edges [][2]int
		bit := 0
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if mask>>bit&1 == 1 {
					edges = append(edges, [2]int{u, v})
				}
				bit++
			}
		}
		g := graph.FromEdges(nv, edges)
		var q []int32
		for v := 0; v < nv; v++ {
			if anchors>>v&1 == 1 {
				q = append(q, int32(v))
			}
		}
		if len(q) == 0 {
			q = []int32{0}
		}
		want, _ := queryDensestBrute(g, q)
		for _, dec := range []*kcore.Decomposition{nil, kcore.Decompose(g)} {
			res, err := QueryDensest(g, q, dec)
			if err != nil {
				t.Fatalf("q=%v: %v", q, err)
			}
			if res.Density.Cmp(want) != 0 {
				t.Fatalf("q=%v reused=%v: density %v, brute force %v", q, dec != nil, res.Density, want)
			}
			in := make(map[int32]bool, len(res.Vertices))
			for _, v := range res.Vertices {
				in[v] = true
			}
			for _, v := range q {
				if !in[v] {
					t.Fatalf("q=%v: anchor %d missing from %v", q, v, res.Vertices)
				}
			}
		}
	})
}
