package datasets

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/motif"
)

func TestRegistryIntegrity(t *testing.T) {
	specs := All()
	if len(specs) != 16 {
		t.Fatalf("registry has %d datasets, want 16 (13 paper + 3 appendix)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate dataset %q", s.Name)
		}
		seen[s.Name] = true
		if s.N <= 0 || s.M <= 0 || s.Div < 1 || s.Seed == 0 {
			t.Fatalf("bad spec: %+v", s)
		}
	}
}

func TestClasses(t *testing.T) {
	if got := len(ByClass(Small)); got != 5 {
		t.Fatalf("small datasets = %d, want 5", got)
	}
	if got := len(ByClass(Large)); got != 5 {
		t.Fatalf("large datasets = %d, want 5", got)
	}
	if got := len(ByClass(Extra)); got != 3 {
		t.Fatalf("extra datasets = %d, want 3", got)
	}
	if got := len(ByClass(Random)); got != 3 {
		t.Fatalf("random datasets = %d, want 3", got)
	}
}

func TestGet(t *testing.T) {
	if _, err := Get("Yeast"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("NoSuchGraph"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadDeterministic(t *testing.T) {
	spec, _ := Get("Yeast")
	a := spec.Load()
	b := spec.Load()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("non-deterministic load: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
}

func TestLoadSizes(t *testing.T) {
	spec, _ := Get("Yeast")
	g := spec.Load()
	if g.N() != spec.N {
		t.Fatalf("n = %d, want %d", g.N(), spec.N)
	}
	// Planted structures add edges beyond the Chung-Lu target.
	if g.M() < spec.M*8/10 || g.M() > spec.M*3 {
		t.Fatalf("m = %d, not near %d", g.M(), spec.M)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDivScalesDown(t *testing.T) {
	spec, _ := Get("Ca-HepTh")
	full := spec.LoadDiv(1)
	quarter := spec.LoadDiv(4)
	if quarter.N() >= full.N() {
		t.Fatalf("div=4 did not shrink: %d vs %d", quarter.N(), full.N())
	}
}

// TestPlantedStructure verifies the three planted regions exist and play
// their roles: the near-clique is the triangle-CDS, the bipartite block
// is the EDS, and greedy peeling underestimates ρopt for edges (which is
// what keeps CoreExact's flow search honest).
func TestPlantedStructure(t *testing.T) {
	spec, _ := Get("Yeast")
	g := spec.Load()

	eds, err := core.CoreExact(context.Background(), g, motif.Clique{H: 2}, core.DefaultOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cds, err := core.CoreExact(context.Background(), g, motif.Clique{H: 3}, core.DefaultOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eds.Density.IsZero() || cds.Density.IsZero() {
		t.Fatal("planted structures missing")
	}
	// The EDS (bipartite block) is much larger than the CDS (near-clique).
	if len(eds.Vertices) <= len(cds.Vertices) {
		t.Fatalf("EDS |V|=%d should exceed CDS |V|=%d", len(eds.Vertices), len(cds.Vertices))
	}
	// Greedy peel underestimates ρopt for edges on this family.
	peel := core.PeelApp(g, motif.Clique{H: 2}, nil)
	if peel.Density.Cmp(eds.Density) >= 0 {
		t.Fatalf("peel %v not below ρopt %v — the bipartite plant lost its role",
			peel.Density, eds.Density)
	}
}

func TestRandomFamilies(t *testing.T) {
	for _, name := range []string{"SSCA", "ER", "R-MAT"} {
		spec, _ := Get(name)
		g := spec.LoadDiv(20)
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTinyDivClamps(t *testing.T) {
	spec, _ := Get("Yeast")
	g := spec.LoadDiv(1 << 20) // absurd divisor: sizes clamp, no panic
	if g.N() == 0 {
		t.Fatal("clamp failed")
	}
}
