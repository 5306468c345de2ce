package obs

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
)

// heapCount is a point sample of the process's cumulative heap
// allocation counters. Deltas between two samples attribute allocation
// to the work between them. The counters are process-global, so under
// concurrency a span's delta includes allocation by other goroutines
// running in the same window — attribution is exact for serial phases
// and an upper bound for parallel ones (the trace says which is which:
// sibling spans with overlapping times double-count).
//
// The counters are span-granular. The runtime publishes a small-object
// allocation only when the per-P cache swaps out the span it came from
// (large objects count at once), so a window that allocates less than
// about one span per size class can read zero. A delta is exact in
// aggregate and positive for any window that allocates well past a
// span; for a tiny query it is only ≥ 0.
type heapCount struct {
	bytes   uint64
	objects uint64
}

// memSamplePool recycles the two-entry metrics.Sample slice so that
// sampling itself allocates nothing on the steady path — the sampler
// runs at every span start/end and must not distort what it measures.
var memSamplePool = sync.Pool{New: func() any {
	s := make([]metrics.Sample, 2)
	s[0].Name = "/gc/heap/allocs:bytes"
	s[1].Name = "/gc/heap/allocs:objects"
	return &s
}}

// memSupported caches whether the runtime exposes the two counters:
// 0 = unknown, 1 = yes, -1 = no. runtime/metrics.Read on two uint64
// counters is a pair of atomic loads — no stop-the-world, unlike
// runtime.ReadMemStats — which is what keeps per-span attribution
// inside the ≤3% obs-overhead budget.
var memSupported atomic.Int32

// readHeapCount samples the cumulative heap allocation counters.
// ok=false (once, then cached) if the runtime does not expose them.
func readHeapCount() (hc heapCount, ok bool) {
	if memSupported.Load() < 0 {
		return heapCount{}, false
	}
	sp := memSamplePool.Get().(*[]metrics.Sample)
	s := *sp
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		memSamplePool.Put(sp)
		memSupported.Store(-1)
		return heapCount{}, false
	}
	hc = heapCount{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
	memSamplePool.Put(sp)
	memSupported.Store(1)
	return hc, true
}

// HeapAllocCounters returns the process's cumulative heap allocation
// counters (bytes and objects allocated since process start). ok=false
// when the runtime does not expose them. Callers diff two samples to
// attribute allocation to the work in between — the shard worker uses
// this to report per-component allocation back to the coordinator.
func HeapAllocCounters() (bytes, objects uint64, ok bool) {
	hc, ok := readHeapCount()
	return hc.bytes, hc.objects, ok
}

// sub returns the delta a-b clamped at zero (counters are monotone, but
// clamping keeps a cross-sample race from ever reporting negatives).
func (a heapCount) sub(b heapCount) (bytes, objects int64) {
	if a.bytes > b.bytes {
		bytes = int64(a.bytes - b.bytes)
	}
	if a.objects > b.objects {
		objects = int64(a.objects - b.objects)
	}
	return bytes, objects
}
