// Parallel execution substrate for the exact hot path: CoreExact's
// per-component searches are independent except for the global lower
// bound l, so they run on a bounded worker pool that shares (l, witness)
// through one Emitter. A density improvement found in one component
// immediately raises the probe α and shrinks the cores of every other
// component — the shared-memory design of arXiv:2103.00154 applied to
// Algorithm 4's component loop. Sharing only ever removes work, so the
// returned density is identical to the serial engine's for any worker
// count (asserted under -race by TestCoreExactParallelEquivalence).
package core

import (
	"sync"
	"sync/atomic"
)

// runIndexed invokes fn(0) … fn(n-1) on min(workers, n) goroutines.
// Indices are claimed in ascending order (an atomic cursor, not static
// striping), so with CoreExact's densest-first component ordering the
// pool starts the most promising searches first and idle workers steal
// whatever is next. workers ≤ 1 degenerates to a plain loop on the
// caller's goroutine — the serial engine and the parallel engine are the
// same code path.
func runIndexed(workers, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
