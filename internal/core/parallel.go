// Parallel execution substrate for the exact hot path: CoreExact's
// per-component searches are independent except for the global lower
// bound l, so they run on a bounded worker pool that
// shares (l, witness) through a mutex-protected monotone cell. A density
// improvement found in one component immediately raises the probe α and
// shrinks the cores of every other component — the shared-memory design of arXiv:2103.00154 applied
// to Algorithm 4's component loop. Sharing only ever removes work, so the
// returned density is identical to the serial engine's for any worker
// count (asserted under -race by TestCoreExactParallelEquivalence).
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/rational"
)

// BoundSource is the certified global lower bound a component search
// reads and publishes to. Implementations must be safe for concurrent
// use and monotone: Bound never decreases, and Improve installs (d, w)
// only when d strictly beats the current bound. The in-process engines
// share a boundCell; the distributed coordinator injects a FloorCell on
// each shard whose floor it rebroadcasts as sibling shards report in —
// searchComponent's exactness argument only needs the bound to be the
// density of some real subgraph of the same graph, wherever it lives.
type BoundSource interface {
	// Bound returns the current certified lower bound.
	Bound() rational.R
	// Improve installs (d, w) iff d strictly beats the current bound,
	// reporting whether it did. Callers pass w slices they will not
	// mutate.
	Improve(d rational.R, w []int32) bool
}

// boundCell is the shared monotone (lower bound, witness) pair. The bound
// only rises, and it always holds the exact density of the witness beside
// it, so readers can use it as a certified global lower bound at any
// moment without synchronizing with the writer's search.
type boundCell struct {
	mu      sync.Mutex
	lower   rational.R
	witness []int32
}

// Bound returns the current lower bound.
func (c *boundCell) Bound() rational.R {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lower
}

// snapshot returns the current (bound, witness) pair.
func (c *boundCell) snapshot() (rational.R, []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lower, c.witness
}

// Improve installs (d, w) iff d strictly beats the current bound,
// reporting whether it did. Callers pass w slices they will not mutate.
func (c *boundCell) Improve(d rational.R, w []int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !d.Greater(c.lower) {
		return false
	}
	c.lower = d
	c.witness = w
	return true
}

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
