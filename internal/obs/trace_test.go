package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestNilTracerSafe exercises the entire API on nil receivers: the off
// path every engine call site takes when tracing is disabled.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.ID() != "" {
		t.Fatalf("nil tracer ID = %q, want empty", tr.ID())
	}
	sp := tr.Start("x", nil)
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetFloat("f", 1.5)
	sp.End()
	if sp.ID() != "" {
		t.Fatalf("nil span ID = %q, want empty", sp.ID())
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", got)
	}
	var snap *Trace
	if snap.Named("x") != nil {
		t.Fatal("nil trace Named should be nil")
	}
	if _, ok := snap.ByID("a"); ok {
		t.Fatal("nil trace ByID should miss")
	}
	if snap.PhaseTotals() != nil {
		t.Fatal("nil trace PhaseTotals should be nil")
	}
}

// TestWithSpanNilTracerNoAlloc verifies the untraced context path does
// not allocate: WithSpan must return ctx unchanged.
func TestWithSpanNilTracerNoAlloc(t *testing.T) {
	ctx := context.Background()
	if got := WithSpan(ctx, nil, nil); got != ctx {
		t.Fatal("WithSpan(nil tracer) must return ctx unchanged")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := WithSpan(ctx, nil, nil)
		sp := StartFromContext(c, "x")
		sp.SetInt("n", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced span path allocates %v per run, want 0", allocs)
	}
}

// TestTraceTree checks parent/child structure and attributes survive a
// snapshot.
func TestTraceTree(t *testing.T) {
	tr := New()
	if tr.ID() == "" {
		t.Fatal("fresh tracer has empty id")
	}
	root := tr.Start("query", nil)
	child := tr.Start("solve", root)
	child.SetAttr("algo", "core-exact")
	child.SetInt("n", 42)
	child.SetFloat("density", 2.5)
	child.End()
	root.End()

	snap := tr.Snapshot()
	if snap.TraceID != tr.ID() {
		t.Fatalf("snapshot trace id %q != %q", snap.TraceID, tr.ID())
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(snap.Spans))
	}
	r, ok := snap.ByID(root.ID())
	if !ok || r.Parent != "" {
		t.Fatalf("root span lookup: ok=%v parent=%q", ok, r.Parent)
	}
	c, ok := snap.ByID(child.ID())
	if !ok || c.Parent != root.ID() {
		t.Fatalf("child span: ok=%v parent=%q want %q", ok, c.Parent, root.ID())
	}
	if c.Attrs["algo"] != "core-exact" || c.Attrs["n"] != "42" || c.Attrs["density"] != "2.5" {
		t.Fatalf("child attrs = %v", c.Attrs)
	}
	if got := snap.Named("solve"); len(got) != 1 || got[0].ID != child.ID() {
		t.Fatalf("Named(solve) = %v", got)
	}
	totals := snap.PhaseTotals()
	if totals["query"] <= 0 || totals["solve"] < 0 {
		t.Fatalf("phase totals = %v", totals)
	}
}

// TestTraceJSONRoundTrip: the snapshot is the wire form.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := New()
	sp := tr.Start("flow", nil)
	sp.SetInt("nodes", 99)
	sp.End()
	snap := tr.Snapshot()
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != snap.TraceID || len(back.Spans) != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.Spans[0].Attrs["nodes"] != "99" || back.Spans[0].Name != "flow" {
		t.Fatalf("round trip span: %+v", back.Spans[0])
	}
	if back.Spans[0].Dur() < 0 || back.Spans[0].Dur() > time.Minute {
		t.Fatalf("implausible duration %v", back.Spans[0].Dur())
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines; run
// under -race this is the registry's thread-safety proof.
func TestTracerConcurrent(t *testing.T) {
	tr := New()
	root := tr.Start("query", nil)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				sp := tr.Start("component", root)
				sp.SetInt("j", int64(j))
				tr.Snapshot()
				sp.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	if got := len(tr.Snapshot().Spans); got != 8*50+1 {
		t.Fatalf("got %d spans, want %d", got, 8*50+1)
	}
}
