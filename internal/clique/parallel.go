package clique

import (
	"runtime"
	"sync"
)

// Parallel clique counting (Section 6.3 of the paper notes that the
// core-based approximation algorithms parallelize because clique-degree
// computation does). The degeneracy DAG makes this embarrassingly
// parallel: each worker walks a stripe of root ranks with private
// counters, merged at the end.

// stripes runs fn(w, workers) for w = 0..workers−1, each on its own
// goroutine, or inline when workers is 1. Static striping (worker w
// walks the roots of rank ≡ w mod workers) balances better than
// contiguous blocks, because the work concentrates at the high-rank end
// of the degeneracy order, where the dense cores sit.
func stripes(workers int, fn func(w, workers int)) {
	if workers == 1 {
		fn(0, 1)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, workers)
		}()
	}
	wg.Wait()
}

// workersFor clamps a worker request (≤ 0 = GOMAXPROCS) to [1, n].
func workersFor(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// DegreesParallel computes h-clique degrees with the given number of
// workers (0 = GOMAXPROCS). It returns exactly the same values as
// Degrees.
func (l *Lister) DegreesParallel(h int, workers int) []int64 {
	n := len(l.order)
	deg := make([]int64, n)
	if h < 1 || n == 0 {
		return deg
	}
	workers = workersFor(workers, n)
	partial := make([][]int64, workers) // per worker, indexed by rank
	stripes(workers, func(w, stride int) {
		d := make([]int64, n)
		l.walk(h, w, stride, func(prefix, cand []int32) bool {
			for _, r := range cand {
				d[r]++
			}
			k := int64(len(cand))
			for _, r := range prefix {
				d[r] += k
			}
			return true
		})
		partial[w] = d
	})
	for r, v := range l.order {
		for _, d := range partial {
			deg[v] += d[r]
		}
	}
	return deg
}
