package obs

import (
	"runtime"
	"strings"
	"testing"
)

// sink keeps the compiler from eliding test allocations.
var sink [][]byte

// TestSpanAllocDelta allocates a known amount inside a span and checks
// the span's allocation delta covers it. The counters are process-wide,
// so the delta is a lower-bounded check (>=), not equality.
func TestSpanAllocDelta(t *testing.T) {
	tr := New()
	sp := tr.Start("alloc", nil)
	const chunk = 1 << 20
	sink = append(sink[:0], make([]byte, chunk))
	sp.End()
	bytes, objects := sp.AllocDelta()
	if bytes < chunk {
		t.Fatalf("span alloc bytes = %d, want >= %d", bytes, chunk)
	}
	if objects < 1 {
		t.Fatalf("span allocs = %d, want >= 1", objects)
	}
	snap := tr.Snapshot()
	ts := snap.Named("alloc")
	if len(ts) != 1 || ts[0].AllocBytes != bytes || ts[0].Allocs != objects {
		t.Fatalf("snapshot span alloc = %+v, want bytes=%d allocs=%d", ts, bytes, objects)
	}
	runtime.KeepAlive(sink)
}

// TestPhaseCosts checks the per-phase aggregation: counts, durations,
// and allocation sum by span name, sorted by name.
func TestPhaseCosts(t *testing.T) {
	trace := &Trace{Spans: []TraceSpan{
		{Name: "flow", DurNs: 10, AllocBytes: 100, Allocs: 2},
		{Name: "component", DurNs: 50, AllocBytes: 500, Allocs: 7},
		{Name: "flow", DurNs: 30, AllocBytes: 200, Allocs: 3},
	}}
	costs := trace.PhaseCosts()
	if len(costs) != 2 {
		t.Fatalf("PhaseCosts len = %d, want 2", len(costs))
	}
	if costs[0].Name != "component" || costs[1].Name != "flow" {
		t.Fatalf("PhaseCosts order = %s,%s, want component,flow", costs[0].Name, costs[1].Name)
	}
	f := costs[1]
	if f.Count != 2 || f.DurNs != 40 || f.AllocBytes != 300 || f.Allocs != 5 {
		t.Fatalf("flow cost = %+v, want count=2 dur=40 bytes=300 allocs=5", f)
	}
	var nilTrace *Trace
	if nilTrace.PhaseCosts() != nil {
		t.Fatal("nil trace PhaseCosts should be nil")
	}
}

// TestHeapAllocCounters checks the span sampler's heap counters are
// monotone across an allocation.
func TestHeapAllocCounters(t *testing.T) {
	c0, ok := readHeapCount()
	if !ok {
		t.Skip("runtime heap counters unavailable")
	}
	sink = append(sink[:0], make([]byte, 1<<16))
	c1, _ := readHeapCount()
	if c1.bytes < c0.bytes+1<<16 {
		t.Fatalf("alloc bytes %d -> %d, want growth >= %d", c0.bytes, c1.bytes, 1<<16)
	}
	if c1.objects <= c0.objects {
		t.Fatalf("alloc objects %d -> %d, want growth", c0.objects, c1.objects)
	}
	runtime.KeepAlive(sink)
}

// TestRuntimeCollector registers the runtime collector into a fresh
// registry and checks a scrape exposes every family with a valid
// exposition, and that registration is idempotent.
func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeCollector(r)
	RegisterRuntimeCollector(r) // idempotent: must not double-observe
	runtime.GC()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("invalid exposition:\n%s\nerr: %v", out, err)
	}
	for _, fam := range []string{
		MetricHeapLiveBytes, MetricHeapGoalBytes, MetricAllocBytes,
		MetricAllocObjects, MetricGoroutines, MetricGomaxprocs,
		MetricGCCycles, MetricGCPause,
	} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Fatalf("scrape missing family %s:\n%s", fam, out)
		}
	}
	if !strings.Contains(out, MetricGCPause+"_count") {
		t.Fatalf("GC pause histogram not expanded:\n%s", out)
	}
	// The forced GC above must be visible in the cycle counter by the
	// second scrape.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(sb2.String(), MetricGCCycles) {
		t.Fatal("GC cycles family missing on rescrape")
	}
}

// TestDeclareEmptyFamily checks a declared family with no series still
// emits HELP/TYPE (the cold-scrape pre-registration guarantee) and that
// the exposition stays valid.
func TestDeclareEmptyFamily(t *testing.T) {
	r := NewRegistry()
	r.Declare("dsd_query_alloc_bytes", "Heap bytes allocated per query.", "histogram", DefAllocBuckets...)
	r.Declare("dsd_query_alloc_bytes", "Heap bytes allocated per query.", "histogram", DefAllocBuckets...) // no-op
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE dsd_query_alloc_bytes histogram") {
		t.Fatalf("declared family missing from cold scrape:\n%s", out)
	}
	if strings.Contains(out, "dsd_query_alloc_bytes_bucket") {
		t.Fatalf("declared family should have no series yet:\n%s", out)
	}
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	// First real observation lands in the declared family's buckets.
	r.Histogram("dsd_query_alloc_bytes", "Heap bytes allocated per query.", DefAllocBuckets, "graph", "g").Observe(5000)
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(sb.String(), `dsd_query_alloc_bytes_bucket{graph="g",le="16384"} 1`) {
		t.Fatalf("observation missing:\n%s", sb.String())
	}
	// Declaring an existing family under a different kind must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("kind-mismatched Declare should panic")
		}
	}()
	r.Declare("dsd_query_alloc_bytes", "x", "counter")
}

// TestOnScrapeCollector checks collectors run before the exposition is
// rendered and may create metrics without deadlocking.
func TestOnScrapeCollector(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.OnScrape(func() {
		calls++
		r.Gauge("fresh_gauge", "Set at scrape time.").Set(float64(calls))
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if calls != 1 || !strings.Contains(sb.String(), "fresh_gauge 1") {
		t.Fatalf("collector not applied (calls=%d):\n%s", calls, sb.String())
	}
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(sb.String(), "fresh_gauge 2") {
		t.Fatalf("collector not re-run:\n%s", sb.String())
	}
}
