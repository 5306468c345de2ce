// Package pattern models the general pattern graphs of Section 7 of the
// paper and enumerates their instances in a data graph. An instance is a
// subgraph of the data graph isomorphic to the pattern, identified by its
// edge set (Definition 8): automorphic re-embeddings are one instance,
// while different edge sets on the same vertex set are distinct instances.
package pattern

import (
	"fmt"
	"sort"
)

// Pattern is a small connected simple graph Ψ(VΨ, EΨ). Patterns are
// immutable after construction.
type Pattern struct {
	name  string
	n     int
	edges [][2]int
	adj   [][]int
	// autos holds every automorphism of the pattern as a permutation
	// (autos[k][i] = image of pattern vertex i). autos[0] is the identity.
	autos [][]int
	// orders[a] is a search order of the pattern vertices starting at a in
	// which every vertex after the first has an earlier neighbor.
	orders [][]int
	// back[a][i] lists, for search order orders[a], the positions (indices
	// into the order) of earlier neighbors of orders[a][i].
	back [][][]int
}

// New validates and builds a pattern. The pattern must be connected,
// simple, non-empty, and have at least one edge.
func New(name string, n int, edges [][2]int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("pattern %q: need at least 2 vertices, got %d", name, n)
	}
	adj := make([][]int, n)
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("pattern %q: self-loop at %d", name, u)
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("pattern %q: edge (%d,%d) out of range", name, u, v)
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return nil, fmt.Errorf("pattern %q: duplicate edge (%d,%d)", name, u, v)
		}
		seen[[2]int{u, v}] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("pattern %q: no edges", name)
	}
	for v := range adj {
		sort.Ints(adj[v])
		if len(adj[v]) == 0 {
			return nil, fmt.Errorf("pattern %q: isolated vertex %d", name, v)
		}
	}
	norm := make([][2]int, 0, len(seen))
	for e := range seen {
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	p := &Pattern{name: name, n: n, edges: norm, adj: adj}
	if !p.connected() {
		return nil, fmt.Errorf("pattern %q: not connected", name)
	}
	p.autos = p.computeAutomorphisms()
	p.orders = make([][]int, n)
	p.back = make([][][]int, n)
	for a := 0; a < n; a++ {
		p.orders[a], p.back[a] = p.searchOrder(a)
	}
	return p, nil
}

// MustNew is New for package-level pattern literals; it panics on invalid
// input.
func MustNew(name string, n int, edges [][2]int) *Pattern {
	p, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pattern's display name.
func (p *Pattern) Name() string { return p.name }

// Size returns |VΨ|, the number of pattern vertices.
func (p *Pattern) Size() int { return p.n }

// NumEdges returns |EΨ|.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// Edges returns the normalized (u<v, sorted) pattern edges.
func (p *Pattern) Edges() [][2]int { return p.edges }

// Automorphisms returns the automorphism group as permutations; the first
// element is the identity.
func (p *Pattern) Automorphisms() [][]int { return p.autos }

// IsClique reports whether the pattern is the complete graph on its
// vertices (h-clique), in which case the dedicated clique machinery is
// preferable.
func (p *Pattern) IsClique() bool {
	return len(p.edges) == p.n*(p.n-1)/2
}

// IsStar reports whether the pattern is a star, returning its center and
// the number of tails.
func (p *Pattern) IsStar() (center, tails int, ok bool) {
	if len(p.edges) != p.n-1 || p.n < 3 {
		return 0, 0, false
	}
	for v := range p.adj {
		if len(p.adj[v]) == p.n-1 {
			return v, p.n - 1, true
		}
	}
	return 0, 0, false
}

// IsCycle4 reports whether the pattern is the 4-cycle ("diamond" in the
// paper's Figure 7, the loop pattern optimized in Appendix D).
func (p *Pattern) IsCycle4() bool {
	if p.n != 4 || len(p.edges) != 4 {
		return false
	}
	for v := range p.adj {
		if len(p.adj[v]) != 2 {
			return false
		}
	}
	return p.connected()
}

func (p *Pattern) connected() bool {
	seen := make([]bool, p.n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range p.adj[v] {
			if !seen[w] {
				seen[w] = true
				cnt++
				stack = append(stack, w)
			}
		}
	}
	return cnt == p.n
}

// computeAutomorphisms brute-forces the automorphism group; patterns have
// at most a handful of vertices so n! enumeration is fine.
func (p *Pattern) computeAutomorphisms() [][]int {
	perm := make([]int, p.n)
	used := make([]bool, p.n)
	var autos [][]int
	deg := make([]int, p.n)
	for v := range p.adj {
		deg[v] = len(p.adj[v])
	}
	var rec func(i int)
	rec = func(i int) {
		if i == p.n {
			autos = append(autos, append([]int(nil), perm...))
			return
		}
		for c := 0; c < p.n; c++ {
			if used[c] || deg[c] != deg[i] {
				continue
			}
			// Check edges from i to earlier vertices are preserved.
			ok := true
			for _, w := range p.adj[i] {
				if w < i && !p.hasEdge(perm[w], c) {
					ok = false
					break
				}
			}
			// Check non-edges too (automorphism preserves non-adjacency).
			if ok {
				for w := 0; w < i; w++ {
					if !p.hasEdge(w, i) && p.hasEdge(perm[w], c) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			perm[i] = c
			used[c] = true
			rec(i + 1)
			used[c] = false
		}
	}
	rec(0)
	// Move identity to the front for readability.
	for k, a := range autos {
		id := true
		for i, v := range a {
			if i != v {
				id = false
				break
			}
		}
		if id {
			autos[0], autos[k] = autos[k], autos[0]
			break
		}
	}
	return autos
}

func (p *Pattern) hasEdge(u, v int) bool {
	for _, w := range p.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// searchOrder returns a BFS-like order of pattern vertices starting at a,
// plus for every position the positions of earlier neighbors. The matcher
// uses this to grow partial embeddings connectedly.
func (p *Pattern) searchOrder(a int) (order []int, back [][]int) {
	order = make([]int, 0, p.n)
	inOrder := make([]int, p.n) // position+1, 0 = absent
	push := func(v int) {
		order = append(order, v)
		inOrder[v] = len(order)
	}
	push(a)
	for len(order) < p.n {
		// Pick the unplaced vertex with the most placed neighbors (ties by
		// id) so candidate sets in the matcher are as constrained as
		// possible.
		best, bestCnt := -1, -1
		for v := 0; v < p.n; v++ {
			if inOrder[v] != 0 {
				continue
			}
			cnt := 0
			for _, w := range p.adj[v] {
				if inOrder[w] != 0 {
					cnt++
				}
			}
			if cnt > bestCnt {
				best, bestCnt = v, cnt
			}
		}
		push(best)
	}
	back = make([][]int, p.n)
	for i, v := range order {
		for _, w := range p.adj[v] {
			if pos := inOrder[w] - 1; pos < i && pos >= 0 {
				back[i] = append(back[i], pos)
			}
		}
	}
	return order, back
}
