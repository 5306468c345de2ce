package graph

import (
	"math/rand"
	"testing"
)

func TestMutatorInsertDelete(t *testing.T) {
	parent := FromEdges(4, [][2]int{{0, 1}, {1, 2}})
	mt := NewMutator(parent)
	if !mt.Insert(2, 3) {
		t.Fatal("Insert(2,3) = false, want true")
	}
	if mt.Insert(2, 3) || mt.Insert(3, 2) {
		t.Fatal("duplicate insert reported a change")
	}
	if mt.Insert(1, 1) {
		t.Fatal("self-loop insert reported a change")
	}
	if mt.Insert(-1, 2) {
		t.Fatal("negative-id insert reported a change")
	}
	if !mt.Delete(0, 1) {
		t.Fatal("Delete(0,1) = false, want true")
	}
	if mt.Delete(0, 1) || mt.Delete(0, 3) || mt.Delete(-1, 0) || mt.Delete(0, 99) {
		t.Fatal("absent-edge delete reported a change")
	}
	g := mt.Freeze()
	if g.M() != 2 || g.N() != 4 {
		t.Fatalf("frozen graph n=%d m=%d, want 4, 2", g.N(), g.M())
	}
	if !g.HasEdge(2, 3) || g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("frozen adjacency wrong: off %v nbr %v", g.off, g.nbr)
	}
}

func TestMutatorParentUntouched(t *testing.T) {
	parent := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	wantAdj := make([][]int32, parent.N())
	for v := range wantAdj {
		wantAdj[v] = append([]int32(nil), parent.Neighbors(v)...)
	}
	mt := NewMutator(parent)
	mt.Delete(1, 2)
	mt.Insert(0, 4)
	mt.Insert(2, 7) // grows past the parent's vertex set
	if parent.N() != 5 || parent.M() != 4 {
		t.Fatalf("parent resized: n=%d m=%d", parent.N(), parent.M())
	}
	for v := range wantAdj {
		got := parent.Neighbors(v)
		if len(got) != len(wantAdj[v]) {
			t.Fatalf("parent adj[%d] changed: %v, want %v", v, got, wantAdj[v])
		}
		for i := range got {
			if got[i] != wantAdj[v][i] {
				t.Fatalf("parent adj[%d] changed: %v, want %v", v, got, wantAdj[v])
			}
		}
	}
	// The live graph reads untouched vertices from the parent's arrays
	// (copy-on-write, not a clone): vertex 3 was never an endpoint above.
	if &parent.Neighbors(3)[0] != &mt.Graph().Neighbors(3)[0] {
		t.Fatal("untouched adjacency was cloned; copy-on-write broken")
	}
	// The frozen graph shares nothing with the parent.
	if g := mt.Freeze(); &parent.Neighbors(3)[0] == &g.Neighbors(3)[0] {
		t.Fatal("frozen graph shares the parent's arrays")
	}
}

func TestMutatorGrow(t *testing.T) {
	mt := NewMutator(FromEdges(2, [][2]int{{0, 1}}))
	if !mt.Insert(5, 3) {
		t.Fatal("Insert(5,3) = false")
	}
	g := mt.Freeze()
	if g.N() != 6 {
		t.Fatalf("n = %d, want 6", g.N())
	}
	if !g.HasEdge(3, 5) {
		t.Fatal("grown edge missing")
	}
	if got := len(g.Neighbors(4)); got != 0 {
		t.Fatalf("new vertex 4 has %d neighbors, want 0", got)
	}
}

// TestMutatorMatchesRebuild drives a random operation sequence through a
// Mutator and through a from-scratch FromEdges rebuild and requires the
// same graph, including sorted adjacency.
func TestMutatorMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		edges := map[[2]int]bool{}
		var base [][2]int
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if !edges[[2]int{u, v}] {
				edges[[2]int{u, v}] = true
				base = append(base, [2]int{u, v})
			}
		}
		parent := FromEdges(n, base)
		mt := NewMutator(parent)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n+2), rng.Intn(n+2)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			k := [2]int{u, v}
			if rng.Intn(2) == 0 {
				if mt.Insert(u, v) != !edges[k] {
					t.Fatalf("trial %d: Insert(%d,%d) changed=%v, edge present=%v", trial, u, v, !edges[k], edges[k])
				}
				edges[k] = true
			} else {
				if mt.Delete(u, v) != edges[k] {
					t.Fatalf("trial %d: Delete(%d,%d) changed=%v, edge present=%v", trial, u, v, edges[k], edges[k])
				}
				delete(edges, k)
			}
		}
		var want [][2]int
		maxV := n - 1
		for e := range edges {
			want = append(want, e)
			if e[1] > maxV {
				maxV = e[1]
			}
		}
		got := mt.Freeze()
		ref := FromEdges(got.N(), want)
		if got.N() < maxV+1 || got.M() != ref.M() {
			t.Fatalf("trial %d: got n=%d m=%d, ref n=%d m=%d", trial, got.N(), got.M(), ref.N(), ref.M())
		}
		for v := 0; v < got.N(); v++ {
			gl, rl := got.Neighbors(v), ref.Neighbors(v)
			if len(gl) != len(rl) {
				t.Fatalf("trial %d: adj[%d] = %v, want %v", trial, v, gl, rl)
			}
			for i := range gl {
				if gl[i] != rl[i] {
					t.Fatalf("trial %d: adj[%d] = %v, want %v", trial, v, gl, rl)
				}
			}
		}
	}
}
