package pattern

import (
	"fmt"
	"strconv"
	"strings"
)

// The catalog mirrors Figure 7 of the paper: seven non-clique patterns plus
// the h-cliques. Figure 7 names and draws its patterns; each constructor's
// doc states the formal graph taken for a name, with vertex 0 first.

// Edge returns the 2-clique (a single edge).
func Edge() *Pattern { return MustNew("edge", 2, [][2]int{{0, 1}}) }

// Triangle returns the 3-clique.
func Triangle() *Pattern { return KClique(3) }

// KClique returns the complete pattern on h vertices (h ≥ 2).
func KClique(h int) *Pattern {
	var edges [][2]int
	for i := 0; i < h; i++ {
		for j := i + 1; j < h; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	name := fmt.Sprintf("%d-clique", h)
	switch h {
	case 2:
		name = "edge"
	case 3:
		name = "triangle"
	}
	return MustNew(name, h, edges)
}

// Star returns the x-star: a center vertex (vertex 0) with x tail vertices.
func Star(x int) *Pattern {
	edges := make([][2]int, x)
	for i := 0; i < x; i++ {
		edges[i] = [2]int{0, i + 1}
	}
	return MustNew(fmt.Sprintf("%d-star", x), x+1, edges)
}

// CStar returns the c3-star: a triangle with one pendant edge (4 vertices,
// 4 edges). The paper notes c3-star ⊂ 2-triangle on 4 vertices.
func CStar() *Pattern {
	return MustNew("c3-star", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}})
}

// Diamond returns the 4-cycle ◇, the loop pattern the paper optimizes in
// Appendix D (instances are pairs of 2-paths sharing both endpoints).
func Diamond() *Pattern {
	return MustNew("diamond", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
}

// Book returns the x-triangle (book graph B_x): x triangles sharing one
// common edge {0,1}. 2-triangle = K4 minus an edge.
func Book(x int) *Pattern {
	edges := [][2]int{{0, 1}}
	for i := 0; i < x; i++ {
		edges = append(edges, [2]int{0, 2 + i}, [2]int{1, 2 + i})
	}
	return MustNew(fmt.Sprintf("%d-triangle", x), x+2, edges)
}

// Basket returns the basket pattern: a 4-cycle with one pendant vertex
// (5 vertices, 5 edges). Figure 7 gives no formal definition, so this
// package fixes this one; every basket count and density here uses it.
func Basket() *Pattern {
	return MustNew("basket", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}})
}

// Figure7 returns the seven non-clique evaluation patterns in the paper's
// ID order (1=2-star, 2=3-star, 3=c3-star, 4=diamond, 5=2-triangle,
// 6=3-triangle, 7=basket).
func Figure7() []*Pattern {
	return []*Pattern{Star(2), Star(3), CStar(), Diamond(), Book(2), Book(3), Basket()}
}

// ByName resolves a pattern by its paper name: "edge", "triangle",
// "h-clique" (e.g. "4-clique"), "x-star", "c3-star", "diamond",
// "x-triangle", "basket".
func ByName(name string) (*Pattern, error) {
	switch name {
	case "edge":
		return Edge(), nil
	case "triangle":
		return Triangle(), nil
	case "c3-star":
		return CStar(), nil
	case "diamond":
		return Diamond(), nil
	case "basket":
		return Basket(), nil
	}
	if i := strings.Index(name, "-"); i > 0 {
		x, err := strconv.Atoi(name[:i])
		if err == nil {
			switch name[i+1:] {
			case "clique":
				if x >= 2 && x <= 8 {
					return KClique(x), nil
				}
			case "star":
				if x >= 2 && x <= 6 {
					return Star(x), nil
				}
			case "triangle":
				if x >= 2 && x <= 5 {
					return Book(x), nil
				}
			}
		}
	}
	return nil, fmt.Errorf("unknown pattern %q", name)
}
