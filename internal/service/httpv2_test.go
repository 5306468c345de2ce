package service_test

import (
	"context"
	"strings"
	"testing"

	dsd "repro"
	"repro/internal/service/wire"
)

// TestServerV2EndToEnd drives the v2 wire protocol through the Go
// client: every problem variant travels as a serialized dsd.Query, the
// response echoes the canonical query and carries the run's QueryStats,
// and a unary repeat of a streamed query is served from the shared cache.
func TestServerV2EndToEnd(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.RegisterEdges(ctx, "bowtie", bowtieEdges); err != nil {
		t.Fatal(err)
	}
	g, err := dsd.FromEdgeList(strings.NewReader(bowtieEdges))
	if err != nil {
		t.Fatal(err)
	}

	// The variants, each expressed as a wire query and checked against
	// the same query on a fresh library Solver.
	triangle, err := dsd.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		query wire.Query
		want  dsd.Query
	}{
		{"core-exact-triangle", wire.Query{Pattern: "triangle"}, dsd.Query{H: 3}},
		{"anchored", wire.Query{Anchors: []int32{5}}, dsd.Query{Anchors: []int32{5}}},
		{"at-least", wire.Query{Pattern: "triangle", AtLeast: 5}, dsd.Query{Pattern: triangle, AtLeast: 5}},
		{"batch-peel", wire.Query{Pattern: "edge", Eps: 0.5}, dsd.Query{Eps: 0.5}},
		{"parallel-core-exact", wire.Query{H: 3, Algo: "core-exact", Workers: 2}, dsd.Query{H: 3}},
	}
	for _, tc := range cases {
		want, err := dsd.NewSolver(g).Solve(ctx, tc.want)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		resp, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie", Query: tc.query})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Result == nil {
			t.Fatalf("%s: nil result", tc.name)
		}
		if resp.Result.DensityNum != want.Density.Num || resp.Result.DensityDen != want.Density.Den {
			t.Fatalf("%s: density %d/%d, want %d/%d", tc.name,
				resp.Result.DensityNum, resp.Result.DensityDen, want.Density.Num, want.Density.Den)
		}
		if resp.Stats == nil {
			t.Fatalf("%s: missing stats", tc.name)
		}
		if resp.Query.Algo == "" {
			t.Fatalf("%s: echoed query not canonical: %+v", tc.name, resp.Query)
		}
	}

	// Canonical echo: the inferred algorithm and defaults are visible.
	resp, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie", Query: wire.Query{Anchors: []int32{5}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Query.Algo != string(dsd.AlgoAnchored) {
		t.Fatalf("echoed algo %q, want %q", resp.Query.Algo, dsd.AlgoAnchored)
	}
	if !resp.Cached {
		t.Fatal("identical v2 repeat was not served from cache")
	}

	// Streamed and unary queries share one cache: a stream, then its
	// unary repeat.
	diamond := wire.QueryV2Request{Graph: "bowtie", Query: wire.Query{Pattern: "diamond"}}
	final, err := c.StreamQuery(ctx, diamond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cached {
		t.Fatal("first streamed diamond query reported cached")
	}
	unary, err := c.QueryV2(ctx, diamond)
	if err != nil {
		t.Fatal(err)
	}
	if !unary.Cached {
		t.Fatal("unary repeat of a streamed query missed the shared cache")
	}

	// Decoding edge: unknown algorithm fails fast with the helpful list.
	_, err = c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie", Query: wire.Query{Algo: "bogus"}})
	if err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown algo error unhelpful: %v", err)
	}
	// Warm stats surface over the wire on a fresh computation that shares Ψ.
	warm, err := c.QueryV2(ctx, wire.QueryV2Request{Graph: "bowtie",
		Query: wire.Query{Pattern: "triangle", Algo: "peel"}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached {
		t.Fatal("triangle/peel unexpectedly cached")
	}
	if !warm.Stats.ReusedDecomposition {
		t.Fatal("warm solver reuse not visible in wire stats")
	}
}
