package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer collects the spans of one trace (normally one query). It is
// safe for concurrent use — component searches running across a worker
// pool all start spans on the same tracer — and nil-safe: every method
// on a nil *Tracer is a no-op returning zero values, which is how the
// off path stays free.
//
// A trace may span processes: a shard worker resumes the coordinator's
// trace with Resume, records its spans locally, and ships them back in
// the ComponentResponse; the coordinator stitches them in with Adopt.
// Span ids embed a per-tracer random token, so ids minted by different
// processes within one trace never collide.
type Tracer struct {
	id string
	// parent is the default parent span id for root spans — empty on a
	// fresh tracer, the coordinator's dispatch span id on a worker-side
	// tracer built by Resume, which is what stitches the worker's
	// subtree under the coordinator's tree.
	parent string

	mu   sync.Mutex
	tok  string
	seq  int
	live []*Span
	done []TraceSpan
}

// newToken returns n random bytes as hex.
func newToken(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// New returns a tracer with a fresh random trace id.
func New() *Tracer {
	return &Tracer{id: newToken(8), tok: newToken(4)}
}

// Resume returns a tracer continuing the trace traceID in another
// process: spans started without an explicit parent attach under
// parentSpanID, the dispatching span on the originating side. An empty
// traceID returns nil — the nil-safe off tracer — so wire fields can be
// passed through unconditionally.
func Resume(traceID, parentSpanID string) *Tracer {
	if traceID == "" {
		return nil
	}
	return &Tracer{id: traceID, parent: parentSpanID, tok: newToken(4)}
}

// ID returns the trace id ("" on a nil tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start begins a span named name under parent (nil parent = a root span,
// or — on a Resume tracer — a child of the remote dispatching span).
// On a nil tracer it returns nil, a no-op span.
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	pid := t.parent
	if parent != nil {
		pid = parent.id
	}
	mem, memOK := readHeapCount()
	t.mu.Lock()
	t.seq++
	s := &Span{
		t:      t,
		id:     t.tok + "-" + strconv.Itoa(t.seq),
		parent: pid,
		name:   name,
		start:  time.Now(),
		mem:    mem,
		memOK:  memOK,
	}
	t.live = append(t.live, s)
	t.mu.Unlock()
	return s
}

// Adopt stitches finished spans from another process into this trace,
// marking each with the shard it ran on. The spans keep their ids and
// parents — a Resume-side tracer already parented its roots under the
// dispatching span, so the adopted subtree hangs off the right node.
func (t *Tracer) Adopt(spans []TraceSpan, shard string) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		s.Shard = shard
		t.done = append(t.done, s)
	}
	t.mu.Unlock()
}

// Snapshot returns the trace recorded so far (nil on a nil tracer).
// Unended spans are reported with their duration up to now.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &Trace{TraceID: t.id, Spans: make([]TraceSpan, 0, len(t.live)+len(t.done))}
	for _, s := range t.live {
		out.Spans = append(out.Spans, s.data())
	}
	out.Spans = append(out.Spans, t.done...)
	return out
}

// Span is one timed phase of a trace. All methods are nil-safe no-ops,
// so call sites never branch on whether tracing is on. A span's fields
// are guarded by its tracer's mutex; a span must only be ended once all
// writers are done with it (the engine's spans are single-writer).
type Span struct {
	t      *Tracer
	id     string
	parent string
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  map[string]string

	// mem is the heap allocation counter sample taken at Start; End
	// diffs a second sample into allocBytes/allocs. memOK is false when
	// the runtime does not expose the counters, in which case the span
	// reports zero allocation rather than garbage.
	mem        heapCount
	memOK      bool
	allocBytes int64
	allocs     int64
}

// ID returns the span id ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// SetAttr records a string attribute on the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	s.t.mu.Unlock()
}

// SetInt records an integer attribute on the span.
func (s *Span) SetInt(k string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(k, strconv.FormatInt(v, 10))
}

// SetFloat records a float attribute on the span.
func (s *Span) SetFloat(k string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(k, strconv.FormatFloat(v, 'g', -1, 64))
}

// End stamps the span's duration and allocation delta; a second End is
// a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	var now heapCount
	nowOK := false
	if s.memOK {
		now, nowOK = readHeapCount()
	}
	s.t.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		if nowOK {
			s.allocBytes, s.allocs = now.sub(s.mem)
		}
		s.ended = true
	}
	s.t.mu.Unlock()
}

// AllocDelta returns the heap allocation attributed to the span: the
// counter delta between Start and End (live spans report the delta up
// to now). Zero when the runtime counters are unavailable. Like the
// duration, the delta is a wall-window measure: allocation by other
// goroutines inside the span's window is included.
func (s *Span) AllocDelta() (bytes, objects int64) {
	if s == nil {
		return 0, 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.allocDeltaLocked()
}

// allocDeltaLocked returns the span's allocation delta; the caller must
// hold s.t.mu.
func (s *Span) allocDeltaLocked() (bytes, objects int64) {
	if s.ended || !s.memOK {
		return s.allocBytes, s.allocs
	}
	now, ok := readHeapCount()
	if !ok {
		return 0, 0
	}
	return now.sub(s.mem)
}

// data snapshots the span; the caller must hold s.t.mu.
func (s *Span) data() TraceSpan {
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	ab, ao := s.allocDeltaLocked()
	var attrs map[string]string
	if len(s.attrs) > 0 {
		attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
	}
	return TraceSpan{
		ID:          s.id,
		Parent:      s.parent,
		Name:        s.name,
		StartUnixNs: s.start.UnixNano(),
		DurNs:       int64(d),
		AllocBytes:  ab,
		Allocs:      ao,
		Attrs:       attrs,
	}
}

// Trace is a finished trace snapshot: the wire- and JSON-ready form the
// service attaches to QueryStats and dsdbench dumps via -trace-out.
type Trace struct {
	TraceID string      `json:"trace_id"`
	Spans   []TraceSpan `json:"spans"`
}

// TraceSpan is one span in snapshot form.
type TraceSpan struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Shard is the worker base URL a remotely-executed span ran on
	// (empty for spans recorded in this process).
	Shard       string `json:"shard,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
	// AllocBytes/Allocs are the heap allocation counter deltas over the
	// span's window (zero when the runtime counters are unavailable).
	// Worker-side spans carry the worker process's deltas across the
	// wire, so adopted spans attribute remote allocation too.
	AllocBytes int64             `json:"alloc_bytes,omitempty"`
	Allocs     int64             `json:"allocs,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Dur returns the span's duration.
func (ts TraceSpan) Dur() time.Duration { return time.Duration(ts.DurNs) }

// Named returns the spans called name, in recording order.
func (tr *Trace) Named(name string) []TraceSpan {
	if tr == nil {
		return nil
	}
	var out []TraceSpan
	for _, s := range tr.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// ByID returns the span with the given id.
func (tr *Trace) ByID(id string) (TraceSpan, bool) {
	if tr == nil {
		return TraceSpan{}, false
	}
	for _, s := range tr.Spans {
		if s.ID == id {
			return s, true
		}
	}
	return TraceSpan{}, false
}

// PhaseTotals sums span durations by name — the per-phase breakdown
// behind the slow-query log and the Figure-8-style flow-vs-peel plots.
// Nested spans are summed as recorded: a component's total includes its
// flow children, which are also reported under their own names.
func (tr *Trace) PhaseTotals() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	out := make(map[string]time.Duration)
	for _, s := range tr.Spans {
		out[s.Name] += s.Dur()
	}
	return out
}

// PhaseCost is the aggregate resource cost of one span name across a
// trace: how many times the phase ran, its summed wall time, and its
// summed heap allocation. The same nesting caveat as PhaseTotals
// applies: a component's cost includes its flow children, which also
// appear under their own names.
type PhaseCost struct {
	Name       string `json:"name"`
	Count      int    `json:"count"`
	DurNs      int64  `json:"dur_ns"`
	AllocBytes int64  `json:"alloc_bytes,omitempty"`
	Allocs     int64  `json:"allocs,omitempty"`
}

// PhaseCosts aggregates the trace's spans by name, sorted by name — the
// per-phase cost table behind the wide query event and the slow-query
// log.
func (tr *Trace) PhaseCosts() []PhaseCost {
	if tr == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []PhaseCost
	for _, s := range tr.Spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, PhaseCost{Name: s.Name})
		}
		out[i].Count++
		out[i].DurNs += s.DurNs
		out[i].AllocBytes += s.AllocBytes
		out[i].Allocs += s.Allocs
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// ShardCost is the aggregate cost of the spans a trace adopted from one
// shard worker: span count, summed wall time, and summed worker-side
// heap allocation.
type ShardCost struct {
	Addr       string `json:"addr"`
	Spans      int    `json:"spans"`
	DurNs      int64  `json:"dur_ns"`
	AllocBytes int64  `json:"alloc_bytes,omitempty"`
	Allocs     int64  `json:"allocs,omitempty"`
}

// ShardCosts aggregates adopted remote spans by worker address, sorted
// by address. Local spans (Shard == "") are excluded; an empty slice
// means the query never left the process.
func (tr *Trace) ShardCosts() []ShardCost {
	if tr == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []ShardCost
	for _, s := range tr.Spans {
		if s.Shard == "" {
			continue
		}
		i, ok := idx[s.Shard]
		if !ok {
			i = len(out)
			idx[s.Shard] = i
			out = append(out, ShardCost{Addr: s.Shard})
		}
		out[i].Spans++
		out[i].DurNs += s.DurNs
		out[i].AllocBytes += s.AllocBytes
		out[i].Allocs += s.Allocs
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Addr < out[b].Addr })
	return out
}
