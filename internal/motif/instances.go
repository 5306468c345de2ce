package motif

import (
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Instance enumeration helpers used by the nucleus baseline and by the
// flow-network builders, which need explicit instance lists.

// ForEachInstance lists all instances of the oracle's motif in g. The
// slice passed to fn is reused; copy it if retained.
func ForEachInstance(g *graph.Graph, o Oracle, fn func(vs []int32)) {
	switch oo := o.(type) {
	case Clique:
		clique.NewLister(g).ForEach(oo.H, fn)
	case Generic:
		oo.P.ForEachInstance(g, nil, fn)
	case Star:
		// The fast star and diamond counters cannot enumerate, so their
		// pattern equivalents go through the generic matcher.
		pattern.Star(oo.X).ForEachInstance(g, nil, fn)
	case Diamond:
		pattern.Diamond().ForEachInstance(g, nil, fn)
	default:
		panic("motif: unknown oracle type")
	}
}
