package motif

import (
	"math/rand"
	"testing"

	"repro/internal/clique"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestCliqueEdgeDeltaMatchesRecount checks the O(touched instances)
// edge delta against the ground truth: the difference in full h-clique
// counts and per-vertex h-clique degrees between the graph with and
// without the edge.
func TestCliqueEdgeDeltaMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		g := gen.GNM(14, 40+rng.Intn(20), int64(trial))
		for h := 2; h <= 5; h++ {
			g.Edges(func(u, v int) {
				// Sample edges to keep the quadratic reference affordable.
				if rng.Intn(3) != 0 {
					return
				}
				total, delta := CliqueEdgeDelta(g, u, v, h)

				mt := graph.NewMutator(g)
				mt.Delete(u, v)
				without := mt.Freeze()
				wantTotal := clique.NewLister(g).Count(h) - clique.NewLister(without).Count(h)
				if total != wantTotal {
					t.Fatalf("trial %d h=%d edge {%d,%d}: total = %d, want %d", trial, h, u, v, total, wantTotal)
				}
				with, wo := clique.NewLister(g).Degrees(h), clique.NewLister(without).Degrees(h)
				for w := 0; w < g.N(); w++ {
					want := with[w]
					if w < len(wo) {
						want -= wo[w]
					}
					if delta[int32(w)] != want {
						t.Fatalf("trial %d h=%d edge {%d,%d}: delta[%d] = %d, want %d",
							trial, h, u, v, w, delta[int32(w)], want)
					}
				}
			})
		}
	}
}

func TestCliqueEdgeDeltaEdgeCases(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if total, _ := CliqueEdgeDelta(g, 0, 1, 1); total != 0 {
		t.Fatalf("h=1 total = %d, want 0", total)
	}
	total, delta := CliqueEdgeDelta(g, 0, 1, 2)
	if total != 1 || delta[0] != 1 || delta[1] != 1 || len(delta) != 2 {
		t.Fatalf("h=2: total=%d delta=%v", total, delta)
	}
	// {2,3} is in no triangle.
	if total, delta := CliqueEdgeDelta(g, 2, 3, 3); total != 0 || len(delta) != 0 {
		t.Fatalf("isolated edge h=3: total=%d delta=%v", total, delta)
	}
	// {0,1} is in exactly the triangle {0,1,2}.
	total, delta = CliqueEdgeDelta(g, 0, 1, 3)
	if total != 1 || delta[0] != 1 || delta[1] != 1 || delta[2] != 1 {
		t.Fatalf("triangle edge h=3: total=%d delta=%v", total, delta)
	}
}
