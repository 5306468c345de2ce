// Package datasets provides deterministic synthetic stand-ins for the 13
// datasets of the paper's evaluation (Table 2, Figure 18) plus the three
// additional datasets of Appendix E. Real graphs are unavailable offline,
// so each stand-in is a seeded Chung–Lu power-law graph matching the
// paper-reported vertex count, edge count and power-law exponent, with a
// planted near-clique sized like the paper's reported (kmax,Ψ)-core so
// that densest-subgraph structure (CDS ≈ large near-clique) is preserved.
// The paper's claims compare algorithms on one graph, so a stand-in needs
// the statistics the algorithms are sensitive to (size, degree skew, a
// dense core), not the real graph's edges.
//
// Large datasets are generated at a reduced scale by default (Div field):
// the shape claims of the paper are about relative algorithm behaviour,
// which is preserved; absolute sizes beyond ~10⁷ edges are not
// materializable in this environment.
package datasets

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Class buckets datasets the way the evaluation does.
type Class string

// Dataset classes: the five small graphs run exact algorithms, the five
// large ones approximation algorithms, the extra three appear in Appendix
// E, and the random three in Figures 13/14.
const (
	Small  Class = "small"
	Large  Class = "large"
	Extra  Class = "extra"
	Random Class = "random"
)

// Spec describes one dataset stand-in.
type Spec struct {
	Name  string
	Class Class
	// N, M, Alpha are the paper-reported statistics (Figure 18).
	N     int
	M     int
	Alpha float64
	// Plant is the planted near-clique size, taken from the paper's
	// (kmax,Ψ)-core size (capped for tractability on huge graphs).
	Plant int
	// Div is the default downscale divisor in this environment (1 = full
	// paper size).
	Div int
	// Seed fixes the generator stream.
	Seed int64
}

// registry lists every dataset in paper order.
var registry = []Spec{
	{Name: "Yeast", Class: Small, N: 1116, M: 2148, Alpha: 2.9769, Plant: 10, Div: 1, Seed: 101},
	{Name: "Netscience", Class: Small, N: 1589, M: 2742, Alpha: 2.4053, Plant: 20, Div: 1, Seed: 102},
	{Name: "As-733", Class: Small, N: 1486, M: 3172, Alpha: 2.7204, Plant: 30, Div: 1, Seed: 103},
	{Name: "Ca-HepTh", Class: Small, N: 9877, M: 25998, Alpha: 2.6472, Plant: 32, Div: 1, Seed: 104},
	{Name: "As-Caida", Class: Small, N: 26475, M: 106762, Alpha: 2.7898, Plant: 40, Div: 1, Seed: 105},

	{Name: "DBLP", Class: Large, N: 425957, M: 1049866, Alpha: 2.3457, Plant: 48, Div: 1, Seed: 201},
	{Name: "Cit-Patents", Class: Large, N: 3774768, M: 16518948, Alpha: 2.284, Plant: 48, Div: 8, Seed: 202},
	{Name: "Friendster", Class: Large, N: 20145325, M: 106570765, Alpha: 2.4466, Plant: 48, Div: 64, Seed: 203},
	{Name: "Enwiki-2017", Class: Large, N: 5409498, M: 122008994, Alpha: 2.4443, Plant: 48, Div: 64, Seed: 204},
	{Name: "UK-2002", Class: Large, N: 18520486, M: 298113762, Alpha: 2.4967, Plant: 48, Div: 128, Seed: 205},

	{Name: "Flickr", Class: Extra, N: 214698, M: 2096306, Alpha: 2.45, Plant: 40, Div: 2, Seed: 301},
	{Name: "Google", Class: Extra, N: 875713, M: 4322051, Alpha: 2.45, Plant: 40, Div: 4, Seed: 302},
	{Name: "Foursquare", Class: Extra, N: 2127093, M: 8640352, Alpha: 2.45, Plant: 40, Div: 8, Seed: 303},

	{Name: "SSCA", Class: Random, N: 100000, M: 3405676, Alpha: 7.2754, Plant: 0, Div: 1, Seed: 401},
	{Name: "ER", Class: Random, N: 100000, M: 4837534, Alpha: 63.6944, Plant: 0, Div: 1, Seed: 402},
	{Name: "R-MAT", Class: Random, N: 100000, M: 2571986, Alpha: 24.653, Plant: 0, Div: 1, Seed: 403},
}

// All returns every dataset spec in paper order.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// ByClass returns the specs of one class in paper order.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

// Get resolves a dataset by name.
func Get(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Load generates the stand-in at the spec's default scale.
func (s Spec) Load() *graph.Graph { return s.LoadDiv(s.Div) }

// LoadDiv generates the stand-in downscaled by div (1 = paper size). The
// generator stream is fixed by the spec's seed, so repeated loads are
// identical.
func (s Spec) LoadDiv(div int) *graph.Graph { return s.loadWith(div, true) }

// LoadPlain generates the stand-in with only the near-clique plant — no
// bipartite EDS block and no decoy. Pattern experiments use this variant:
// a complete bipartite block carries combinatorially explosive counts of
// cycle-bearing patterns (baskets, diamonds) that no algorithm in the
// paper is meant to materialize.
func (s Spec) LoadPlain(div int) *graph.Graph { return s.loadWith(div, false) }

func (s Spec) loadWith(div int, withEDSPlant bool) *graph.Graph {
	if div < 1 {
		div = 1
	}
	n, m := s.N/div, s.M/div
	if n < 16 {
		n = 16
	}
	if m < 16 {
		m = 16
	}
	switch s.Name {
	case "SSCA":
		// Random-sized cliques; max clique size 100 matches the paper's
		// reported edge volume at n = 100000. The max clique size shrinks
		// with the downscale so clique enumeration stays proportionate.
		mc := 100
		for d := div; d >= 4; d /= 4 {
			mc /= 2
		}
		if mc < 8 {
			mc = 8
		}
		return gen.SSCA(n, mc, s.Seed)
	case "ER":
		return gen.GNM(n, m, s.Seed)
	case "R-MAT":
		return gen.RMATDefault(n, m, s.Seed)
	}
	plant := min(s.Plant, n/24)
	if plant < 4 {
		plant = 0 // too small to plant anything
	}
	a, span := plant/2, (plant/2+3)/2
	// The Chung–Lu draws and the plants below go into one Builder, sized
	// for all of them, and are built once.
	b := graph.NewBuilderCap(n, m+plant*(plant-1)/2+a*10*plant+12*plant*span)
	gen.ChungLuEdges(n, m, s.Alpha, s.Seed, b.AddEdge)
	if plant == 0 {
		return b.Build()
	}

	// The stand-in plants three structures in a contiguous mid-range id
	// block, reproducing the paper's Figure 1 narrative (the EDS and the
	// clique-CDS are different subgraphs) and keeping the exact
	// algorithms' flow search non-trivial:
	//
	//  1. A graded near-clique of `plant` vertices (~93% edge fill): the
	//     CDS for every h ≥ 3, as in §8.1 ④ (CDS ≈ large near-clique).
	//  2. A complete bipartite block K_{a,10·plant} with a = plant/2: the
	//     EDS. Its right side has minimum degree a, *below* the decoy's,
	//     so greedy peeling destroys it early and PeelApp/ρ′ stay
	//     strictly below ρopt — the regime where CoreExact's binary
	//     search and network shrinking matter (Figure 9).
	//  3. A circulant "decoy" of 12·plant vertices with degree ≈ a+2:
	//     denser in min-degree than the bipartite block but sparser in
	//     edge density, which is what fools the greedy peel.
	cursor := n / 3
	take := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = (cursor + i) % n
		}
		cursor += k
		return ids
	}

	// 1: near-clique.
	clq := take(plant)
	for i := range clq {
		for j := i + 1; j < len(clq); j++ {
			if (i*2654435761+j*40503)%100 < 93 {
				b.AddEdge(clq[i], clq[j])
			}
		}
	}
	if !withEDSPlant {
		return b.Build()
	}
	// 2: bipartite K_{a,T}.
	left := take(a)
	right := take(10 * plant)
	for _, l := range left {
		for _, r := range right {
			b.AddEdge(l, r)
		}
	}
	// 3: circulant decoy with degree 2·⌈(a+2)/2⌉ ≥ a+2.
	dec := take(12 * plant)
	for i := range dec {
		for o := 1; o <= span; o++ {
			b.AddEdge(dec[i], dec[(i+o)%len(dec)])
		}
	}
	return b.Build()
}
