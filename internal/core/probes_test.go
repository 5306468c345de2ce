package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/obs"
	"repro/internal/rational"
	"repro/internal/testutil"
)

// TestFlowProbeCounts pins how many flow networks serial CoreExact builds
// on a fixed corpus — the quick-mode perfsuite stress instance and two
// stand-ins at a quick downscale — next to the exact optimum, the
// fingerprint of its sorted witness and the node count of every network
// in build order (Stats.FlowNodes). The search
// runs no Greed++ pre-solve, so the rows pin the engine at Iterative 0;
// TestIterativeBudgetDoesNotChangeSearch (root package) holds every
// other budget to them. Every count is deterministic: a change in it is
// a change in the search, to be explained. Each component search that builds a
// network must also end on an empty min cut, the exact certificate of its
// Dinkelbach loop, and on no empty cut before that.
func TestFlowProbeCounts(t *testing.T) {
	stand := func(name string) *graph.Graph {
		spec, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.LoadDiv(8)
	}
	multi := gen.MultiCommunity(8, 25, 10, 15, 18, 1)
	hepth, caida := stand("Ca-HepTh"), stand("As-Caida")
	cases := []struct {
		name    string
		g       *graph.Graph
		h, iter int
		probes  int
		density rational.R
		witness string
		nodes   []int
	}{
		{"multicommunity", multi, 2, 0, 13, rational.New(520, 35), "1723c5a630218c01",
			[]int{37, 55, 73, 91, 91, 109, 109, 127, 127, 145, 145, 163, 163}},
		{"multicommunity", multi, 3, 0, 12, rational.New(4610, 35), "1723c5a630218c01",
			[]int{327, 669, 851, 1033, 1215, 1215, 1397, 1397, 1579, 1579, 1761, 1761}},
		{"Ca-HepTh/8", hepth, 2, 0, 3, rational.New(5243, 337), "784d3b15443e10cb", []int{771, 767, 767}},
		{"Ca-HepTh/8", hepth, 3, 0, 1, rational.New(3997, 32), "671fc28df117f4e5", []int{496}},
		{"As-Caida/8", caida, 2, 0, 3, rational.New(8151, 422), "3e78b3caccad0aaa", []int{959, 957, 957}},
		{"As-Caida/8", caida, 3, 0, 1, rational.New(7939, 40), "ef9bcfda0055870d", []int{768}},
	}
	for _, c := range cases {
		key := fmt.Sprintf("%s h=%d iter=%d", c.name, c.h, c.iter)
		opts := DefaultOptions()
		opts.Iterative = c.iter
		tr := obs.New()
		res, err := CoreExact(obs.WithSpan(context.Background(), tr, nil), c.g, motif.Clique{H: c.h}, opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Density.Cmp(c.density) != 0 {
			t.Errorf("%s: density %v, want %v", key, res.Density, c.density)
		}
		if res.Stats.Iterations != c.probes {
			t.Errorf("%s: %d flow probes, want %d", key, res.Stats.Iterations, c.probes)
		}
		w := slices.Sorted(slices.Values(res.Vertices))
		xs := make([]int64, len(w))
		for i, v := range w {
			xs[i] = int64(v)
		}
		if got := testutil.Fingerprint(xs...); got != c.witness {
			t.Errorf("%s: witness fingerprint %s, want %s", key, got, c.witness)
		}
		if !slices.Equal(res.Stats.FlowNodes, c.nodes) {
			t.Errorf("%s: flow nodes %v, want %v", key, res.Stats.FlowNodes, c.nodes)
		}
		trace := tr.Snapshot()
		flows := trace.Named(obs.SpanFlow)
		if len(flows) != res.Stats.Iterations {
			t.Errorf("%s: %d flow spans for %d probes", key, len(flows), res.Stats.Iterations)
		}
		for _, comp := range trace.Named(obs.SpanComponent) {
			var cuts []string
			for _, f := range flows {
				if f.Parent == comp.ID {
					cuts = append(cuts, f.Attrs["cut"])
				}
			}
			for i, cut := range cuts {
				if last := i == len(cuts)-1; last != (cut == "0") {
					t.Errorf("%s: component of size %s: probe %d of %d cut %s vertices",
						key, comp.Attrs["size"], i+1, len(cuts), cut)
				}
			}
		}
	}
}
