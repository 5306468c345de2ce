package clique

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/testutil"
)

// bruteCliques lists every h-clique of g by extending id-increasing
// chains of pairwise-adjacent vertices.
func bruteCliques(g *graph.Graph, h int) map[key]bool {
	set := map[key]bool{}
	cur := make([]int32, 0, h)
	var rec func(next int)
	rec = func(next int) {
		if len(cur) == h {
			set[cliqueKey(cur)] = true
			return
		}
		for v := next; v < g.N(); v++ {
			ok := true
			for _, u := range cur {
				if !g.HasEdge(int(u), v) {
					ok = false
					break
				}
			}
			if ok {
				cur = append(cur, int32(v))
				rec(v + 1)
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(0)
	return set
}

// TestListerMatchesBruteForce checks every enumeration entry point
// against brute force on seeded generator graphs with shuffled ids:
// ForEach yields each clique once with members in increasing rank, and
// the leaf-aggregated counts and degrees agree serially and at every
// worker count.
func TestListerMatchesBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":     gen.GNM(16, 60, 1),
		"chunglu": gen.ChungLu(18, 55, 2.2, 2),
		"ssca":    gen.SSCA(18, 7, 3),
		"er":      gen.ER(14, 0.6, 4),
	}
	for name, base := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			g := testutil.Relabel(base, seed)
			rank := kcore.Decompose(g).Pos
			l := NewLister(g)
			for h := 1; h <= 6; h++ {
				t.Run(fmt.Sprintf("%s/seed%d/h%d", name, seed, h), func(t *testing.T) {
					want := bruteCliques(g, h)
					got := map[key]bool{}
					l.ForEach(h, func(c []int32) {
						if len(c) != h {
							t.Fatalf("clique %v has %d members, want %d", c, len(c), h)
						}
						for i := 1; i < len(c); i++ {
							if rank[c[i-1]] >= rank[c[i]] {
								t.Fatalf("clique %v not in increasing rank", c)
							}
						}
						k := cliqueKey(c)
						if got[k] {
							t.Fatalf("clique %v visited twice", c)
						}
						got[k] = true
					})
					if len(got) != len(want) {
						t.Fatalf("ForEach visited %d cliques, brute force finds %d", len(got), len(want))
					}
					for k := range want {
						if !got[k] {
							t.Fatalf("ForEach missed clique %v", k)
						}
					}
					wantDeg := make([]int64, g.N())
					for k := range want {
						for _, v := range k[:h] {
							wantDeg[v]++
						}
					}
					if c := l.Count(h); c != int64(len(want)) {
						t.Fatalf("Count = %d, want %d", c, len(want))
					}
					assertDegrees(t, "Degrees", l.Degrees(h), wantDeg)
					for w := 1; w <= 4; w++ {
						assertDegrees(t, fmt.Sprintf("DegreesParallel(workers=%d)", w), l.DegreesParallel(h, w), wantDeg)
					}
				})
			}
		}
	}
}

func assertDegrees(t *testing.T, what string, got, want []int64) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s[%d] = %d, want %d", what, v, got[v], want[v])
		}
	}
}

// TestForEachStopStopsAtFirstFalse: once fn returns false no further
// clique is visited and ForEachStop reports the walk incomplete; a walk
// whose fn never refuses reports completion.
func TestForEachStopStopsAtFirstFalse(t *testing.T) {
	g := testutil.Relabel(gen.ChungLu(60, 400, 2.2, 5), 9)
	l := NewLister(g)
	for h := 1; h <= 4; h++ {
		total := l.Count(h)
		if total < 3 {
			t.Fatalf("h=%d: only %d cliques, test graph too sparse", h, total)
		}
		for _, stopAt := range []int64{1, 2, total} {
			var calls int64
			done := l.ForEachStop(h, func([]int32) bool {
				calls++
				return calls < stopAt
			})
			if done || calls != stopAt {
				t.Fatalf("h=%d stop at %d: done=%v after %d calls", h, stopAt, done, calls)
			}
		}
		var calls int64
		if !l.ForEachStop(h, func([]int32) bool { calls++; return true }) || calls != total {
			t.Fatalf("h=%d: full walk done after %d of %d calls", h, calls, total)
		}
	}
}

// TestRowsMatchLists holds the bit-row walk to the list walks on random
// graphs whose vertex counts sit on and around word boundaries, each
// drawn sparse and dense: Rows.Degrees and DegreesParallel must equal
// Lister.Degrees, and Rows.ForEachContaining must list the cliques of
// ForEachContaining in the same order, with every vertex alive and under
// random alive masks.
func TestRowsMatchLists(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		pairs := n * (n - 1) / 2
		for _, m := range []int{pairs / 20, pairs / 3} {
			g := testutil.Relabel(gen.GNM(n, m, int64(n+m)), int64(m))
			rows := NewRows(g)
			l := NewLister(g)
			rng := rand.New(rand.NewSource(int64(n * m)))
			for h := 1; h <= 6; h++ {
				want := l.Degrees(h)
				assertDegrees(t, fmt.Sprintf("n=%d m=%d h=%d Rows.Degrees", n, m, h), rows.Degrees(h), want)
				assertDegrees(t, fmt.Sprintf("n=%d m=%d h=%d Rows.DegreesParallel(3)", n, m, h), rows.DegreesParallel(h, 3), want)
			}
			for trial := 0; trial < 4; trial++ {
				alive, mask := []bool(nil), []uint64(nil)
				if trial > 0 {
					alive, mask = make([]bool, n), NewAlive(n)
					for v := range alive {
						if alive[v] = rng.Intn(4) != 0; !alive[v] {
							Kill(mask, v)
						}
					}
				}
				for h := 2; h <= 5; h++ {
					for v := 0; v < n; v++ {
						var want, got [][]int32
						ForEachContaining(g, v, h, alive, func(o []int32) { want = append(want, slices.Clone(o)) })
						rows.ForEachContaining(v, h, mask, func(o []int32) { got = append(got, slices.Clone(o)) })
						if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
							t.Fatalf("n=%d m=%d trial %d h=%d v=%d: rows list %v, lists %v", n, m, trial, h, v, got, want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkCliqueDegrees times the serial clique-degree count, the
// Ψ-degree seeding of every clique-density solve, on a power-law graph
// with shuffled ids.
func BenchmarkCliqueDegrees(b *testing.B) {
	g := testutil.Relabel(gen.ChungLu(40000, 200000, 2.1, 1), 1)
	l := NewLister(g)
	for _, h := range []int{3, 4} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			for b.Loop() {
				l.Degrees(h)
			}
		})
	}
}
