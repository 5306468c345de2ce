package expt

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// perfCfg is a minimal configuration so the suite runs at test speed.
func perfCfg() Config {
	c := QuickConfig(io.Discard)
	c.Workers = 2
	return c
}

// TestPerfSuiteReportRoundTrip runs the suite, checks the headline
// invariants, and round-trips the JSON through the schema and density
// validator CI applies to the uploaded BENCH_*.json artifact. The
// wall-clock gates (ValidateBenchTimings) are left to the bench job: on a
// quick case of tens of milliseconds they measure the machine's load as
// much as the code.
func TestPerfSuiteReportRoundTrip(t *testing.T) {
	rep, err := PerfSuiteReport(perfCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema || rep.Suite != "perfsuite" {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Cases) < 4 {
		t.Fatalf("only %d cases", len(rep.Cases))
	}
	sawParallel, sawIterative := false, false
	for _, c := range rep.Cases {
		if c.ParallelNsOp > 0 {
			sawParallel = true
			if c.DensityMatch == nil || !*c.DensityMatch {
				t.Fatalf("case %q: parallel arm does not match serial", c.Name)
			}
		}
		if c.IterativeNsOp > 0 {
			sawIterative = true
			if c.IterativeMatch == nil || !*c.IterativeMatch {
				t.Fatalf("case %q: iterative arm does not match serial", c.Name)
			}
			if c.IterativeFlowSolves > c.SerialIters {
				t.Fatalf("case %q: iterative arm spends more flow solves (%d) than seed (%d)",
					c.Name, c.IterativeFlowSolves, c.SerialIters)
			}
		}
	}
	if !sawParallel {
		t.Fatal("no parallel arm measured")
	}
	if !sawIterative {
		t.Fatal("no iterative arm measured")
	}
	if rep.FlowSolveReduction < 1 {
		t.Fatalf("flow-solve reduction %.2f, want ≥ 1", rep.FlowSolveReduction)
	}

	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(buf.Bytes()); err != nil {
		t.Fatalf("emitted report does not validate: %v", err)
	}
}

// TestValidateBenchReportRejects walks the validator through the failure
// modes CI must catch.
func TestValidateBenchReportRejects(t *testing.T) {
	tr := true
	fa := false
	good := BenchReport{
		Schema:  BenchSchema,
		Suite:   "perfsuite",
		Workers: 4,
		Cases: []BenchCase{{
			Name: "x", Algo: "core-exact", SerialNsOp: 10,
			ParallelNsOp: 5, Workers: 4, Speedup: 2, DensityMatch: &tr,
			SerialIters: 20, IterativeNsOp: 4, IterativeBudget: 16,
			IterativeFlowSolves: 5, IterativeSpeedup: 2.5, IterativeMatch: &tr,
		}},
	}
	mutate := func(fn func(*BenchReport)) []byte {
		r := good
		r.Cases = append([]BenchCase(nil), good.Cases...)
		fn(&r)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(data); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad schema", mutate(func(r *BenchReport) { r.Schema = "v0" }), "schema"},
		{"no cases", mutate(func(r *BenchReport) { r.Cases = nil }), "no cases"},
		{"no workers", mutate(func(r *BenchReport) { r.Workers = 0 }), "workers"},
		{"zero serial", mutate(func(r *BenchReport) { r.Cases[0].SerialNsOp = 0 }), "serial_ns_op"},
		{"no speedup", mutate(func(r *BenchReport) { r.Cases[0].Speedup = 0 }), "speedup"},
		{"density mismatch", mutate(func(r *BenchReport) { r.Cases[0].DensityMatch = &fa }), "does not match"},
		{"iterative mismatch", mutate(func(r *BenchReport) { r.Cases[0].IterativeMatch = &fa }), "iterative density"},
		{"iterative no match field", mutate(func(r *BenchReport) { r.Cases[0].IterativeMatch = nil }), "iterative_match"},
		{"iterative no budget", mutate(func(r *BenchReport) { r.Cases[0].IterativeBudget = 0 }), "budget"},
		{"iterative more solves", mutate(func(r *BenchReport) { r.Cases[0].IterativeFlowSolves = 21 }), "flow solves"},
		{"unknown field", []byte(`{"schema":"dsd-bench/v1","bogus":1}`), "bogus"},
		{"not json", []byte("perf went great"), "bench report"},
		{"negative alloc", mutate(func(r *BenchReport) { r.Cases[0].AllocBytesOp = -1 }), "negative memory"},
		{"coreexact without memory arm", mutate(func(r *BenchReport) { r.Cases[0].Name = "coreexact-x" }), "memory arm"},
		{"coreexact without peak rss", mutate(func(r *BenchReport) {
			r.Cases[0].Name = "coreexact-x"
			r.Cases[0].AllocBytesOp, r.Cases[0].AllocsOp = 1<<20, 1000
		}), "peak_rss_bytes"},
	}
	for _, c := range cases {
		err := ValidateBenchReport(c.data)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateBenchTimings walks the wall-clock gates through their
// failure modes on synthetic reports, and checks that none of them is
// also a ValidateBenchReport failure.
func TestValidateBenchTimings(t *testing.T) {
	tr := true
	report := func(c BenchCase, obs float64) []byte {
		c.Algo = "core-exact"
		if c.SerialNsOp == 0 {
			c.SerialNsOp = 100
		}
		data, err := json.Marshal(BenchReport{Schema: BenchSchema, Suite: "perfsuite", Workers: 4,
			ObsOverhead: obs, Cases: []BenchCase{c}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name       string
		good, slow []byte
		want       string
	}{
		{"obs overhead", report(BenchCase{Name: "x"}, 1.03), report(BenchCase{Name: "x"}, 1.04), "obs overhead"},
		{"degrade",
			report(BenchCase{Name: "degrade-x", DegradeNsOp: 9, DegradeDeadlineNs: 5, DegradeCertified: &tr}, 0),
			report(BenchCase{Name: "degrade-x", DegradeNsOp: 10, DegradeDeadlineNs: 5, DegradeCertified: &tr}, 0),
			"10%"},
		{"anytime",
			report(BenchCase{Name: "anytime-x", AnytimeNsOp: 50, AnytimeFirstNs: 4, AnytimeEvents: 2, AnytimeMatch: &tr, AnytimeMonotone: &tr}, 0),
			report(BenchCase{Name: "anytime-x", AnytimeNsOp: 50, AnytimeFirstNs: 5, AnytimeEvents: 2, AnytimeMatch: &tr, AnytimeMonotone: &tr}, 0),
			"5%"},
		{"mutate",
			report(BenchCase{Name: "mutate-x", MutateIncNsOp: 9, MutateColdNsOp: 10, MutateMatch: &tr}, 0),
			report(BenchCase{Name: "mutate-x", MutateIncNsOp: 10, MutateColdNsOp: 10, MutateMatch: &tr}, 0),
			"not faster than cold rebuild"},
		{"warm",
			report(BenchCase{Name: "warmsolver-x", WarmNsOp: 9, ColdNsOp: 10, WarmMatch: &tr, WarmReused: &tr}, 0),
			report(BenchCase{Name: "warmsolver-x", WarmNsOp: 10, ColdNsOp: 10, WarmMatch: &tr, WarmReused: &tr}, 0),
			"not faster than cold"},
	}
	for _, c := range cases {
		for _, data := range [][]byte{c.good, c.slow} {
			if err := ValidateBenchReport(data); err != nil {
				t.Fatalf("%s: schema validator rejected a timing: %v", c.name, err)
			}
		}
		if err := ValidateBenchTimings(c.good); err != nil {
			t.Fatalf("%s: in-bound report rejected: %v", c.name, err)
		}
		err := ValidateBenchTimings(c.slow)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
}

// TestCompareBenchReports diffs a synthetic old/new report pair: shared
// cases must land in the table, asymmetric cases must be called out, and
// an older report without the iterative fields must parse (the BENCH_2 →
// BENCH_3 situation `make bench-compare` exists for).
func TestCompareBenchReports(t *testing.T) {
	tr := true
	oldRep := BenchReport{
		Schema: BenchSchema, Suite: "perfsuite", Workers: 4,
		Cases: []BenchCase{
			{Name: "shared", Algo: "core-exact", SerialNsOp: 100, SerialIters: 40},
			{Name: "dropped", Algo: "core-exact", SerialNsOp: 50},
		},
	}
	newRep := BenchReport{
		Schema: BenchSchema, Suite: "perfsuite", Workers: 4,
		FlowSolveReduction: 8,
		Cases: []BenchCase{
			{Name: "shared", Algo: "core-exact", SerialNsOp: 90, SerialIters: 40,
				IterativeNsOp: 30, IterativeBudget: 16, IterativeFlowSolves: 5, IterativeMatch: &tr},
			{Name: "added", Algo: "core-exact", SerialNsOp: 10},
		},
	}
	marshal := func(r BenchReport) []byte {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var buf bytes.Buffer
	if err := CompareBenchReports(&buf, marshal(oldRep), marshal(newRep)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"shared", "only in new: added", "only in old: dropped", "flow-solve reduction: 8.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}
	if err := CompareBenchReports(&buf, []byte(`{"schema":"nope"}`), marshal(newRep)); err == nil {
		t.Fatal("bad old report accepted")
	}
}

// TestCompareBenchReportsMemoryGate: when both trajectory points carry
// a memory arm, allocation growth past the factor fails the comparison;
// growth inside the factor, or a point without memory data, passes.
func TestCompareBenchReportsMemoryGate(t *testing.T) {
	report := func(alloc int64) []byte {
		r := BenchReport{
			Schema: BenchSchema, Suite: "perfsuite", Workers: 4,
			Cases: []BenchCase{{Name: "coreexact-x", Algo: "core-exact", SerialNsOp: 100,
				AllocBytesOp: alloc, AllocsOp: 10, PeakRSSBytes: 1 << 20}},
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var buf bytes.Buffer
	if err := CompareBenchReports(&buf, report(1000), report(1400)); err != nil {
		t.Fatalf("1.4x allocation growth failed the gate: %v", err)
	}
	err := CompareBenchReports(&buf, report(1000), report(1600))
	if err == nil || !strings.Contains(err.Error(), "memory regression") {
		t.Fatalf("1.6x allocation growth err = %v, want a memory regression", err)
	}
	// An old point without memory data (the BENCH_9 → BENCH_10 situation)
	// cannot gate.
	if err := CompareBenchReports(&buf, report(0), report(1600)); err != nil {
		t.Fatalf("old point without memory data failed the gate: %v", err)
	}
}

// TestInterleavedAlternates: the two arms alternate which runs first, one
// ratio comes back per pair, and both bests are positive.
func TestInterleavedAlternates(t *testing.T) {
	var order []string
	bestA, bestB, ratios := interleaved(4, 0,
		func() { order = append(order, "a") },
		func() { order = append(order, "b") })
	if got := strings.Join(order, ""); got != "abbaabba" {
		t.Fatalf("run order %q, want abbaabba", got)
	}
	if len(ratios) != 4 || bestA <= 0 || bestB <= 0 {
		t.Fatalf("bests %d/%d, %d ratios; want positive bests and 4 ratios", bestA, bestB, len(ratios))
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1.5}, 1.5, 1.5, 1.5},
		{[]float64{2, 1}, 1, 1.5, 2},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.5, 2.5, 3.5},
		{[]float64{7, 1, 5, 3, 9}, 2, 5, 8},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
