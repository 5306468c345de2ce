package clique

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(60, 300, seed)
		l := NewLister(g)
		for h := 2; h <= 5; h++ {
			for _, workers := range []int{1, 2, 4, 7} {
				pd := l.DegreesParallel(h, workers)
				sd := l.Degrees(h)
				for v := range sd {
					if pd[v] != sd[v] {
						t.Logf("seed %d h=%d workers=%d: deg[%d] %d != %d",
							seed, h, workers, v, pd[v], sd[v])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDefaultsAndEdgeCases(t *testing.T) {
	g := gen.GNM(10, 20, 1)
	l := NewLister(g)
	want := l.Degrees(3)
	for _, workers := range []int{0, 100} { // 0 → GOMAXPROCS; more than n clamps
		if !slices.Equal(l.DegreesParallel(3, workers), want) {
			t.Fatalf("DegreesParallel(workers=%d) differs from Degrees", workers)
		}
	}
	empty := NewLister(gen.GNM(0, 0, 1))
	if empty.Count(3) != 0 {
		t.Fatal("empty graph")
	}
	if got := len(empty.DegreesParallel(3, 4)); got != 0 {
		t.Fatal("empty degrees")
	}
}

func TestForEachStopEarlyTermination(t *testing.T) {
	g := gen.GNM(30, 200, 2)
	l := NewLister(g)
	var seen int
	done := l.ForEachStop(3, func([]int32) bool {
		seen++
		return seen < 5
	})
	if done {
		t.Fatal("ForEachStop reported completion despite early stop")
	}
	if seen != 5 {
		t.Fatalf("visited %d cliques after stop at 5", seen)
	}
	// Full run reports done.
	if !l.ForEachStop(3, func([]int32) bool { return true }) {
		t.Fatal("complete run reported as stopped")
	}
}
