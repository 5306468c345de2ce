package expt

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service/wire"
)

// TestValidateQueryLog walks the /v1/querylog validator through a
// well-formed scrape and the malformations CI must catch.
func TestValidateQueryLog(t *testing.T) {
	good := wire.QueryLogResponse{
		Schema:      wire.QueryLogSchema,
		Capacity:    512,
		SampleEvery: 8,
		Seen:        5,
		Retained:    3,
		Sampled:     2,
		Events: []*obs.QueryEvent{
			{
				TimeUnixNs: 2000, Graph: "g", Algo: "core-exact", QueryKey: "k",
				Outcome: "shed", Shed: true, Error: "overloaded", DurNs: 10,
			},
			{
				TimeUnixNs: 1500, Graph: "g", Algo: "core-exact", QueryKey: "k",
				Outcome: "cache_hit", Cached: true, DurNs: 5, Density: 1.5,
			},
			{
				TimeUnixNs: 1000, Graph: "g", Algo: "core-exact", QueryKey: "k",
				Outcome: "ok", Slow: true, DurNs: 100, QueueWaitNs: 3,
				AllocBytes: 4096, Allocs: 17, Density: 1.5, TraceID: "t1",
				Phases: []obs.PhaseCost{{Name: "solve", Count: 1, DurNs: 90, AllocBytes: 4096, Allocs: 17}},
			},
		},
	}
	marshal := func(mutate func(*wire.QueryLogResponse)) []byte {
		r := good
		r.Events = append([]*obs.QueryEvent(nil), good.Events...)
		for i, ev := range r.Events {
			cp := *ev
			r.Events[i] = &cp
		}
		if mutate != nil {
			mutate(&r)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	if err := ValidateQueryLog(marshal(nil)); err != nil {
		t.Fatalf("good query log rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad schema", marshal(func(r *wire.QueryLogResponse) { r.Schema = "v0" }), "schema"},
		{"unknown field", []byte(`{"schema":"dsd-querylog/v1","bogus":1}`), "bogus"},
		{"not json", []byte("all queries fine"), "query log"},
		{"counter mismatch", marshal(func(r *wire.QueryLogResponse) { r.Sampled = 7 }), "seen"},
		{"over capacity", marshal(func(r *wire.QueryLogResponse) { r.Capacity = 2 }), "capacity"},
		{"unknown outcome", marshal(func(r *wire.QueryLogResponse) { r.Events[0].Outcome = "fine" }), "outcome"},
		{"missing labels", marshal(func(r *wire.QueryLogResponse) { r.Events[1].Graph = "" }), "labels"},
		{"shed flag disagrees", marshal(func(r *wire.QueryLogResponse) { r.Events[0].Shed = false }), "shed"},
		{"cached flag disagrees", marshal(func(r *wire.QueryLogResponse) { r.Events[1].Cached = false }), "cached"},
		{"error on ok", marshal(func(r *wire.QueryLogResponse) { r.Events[2].Error = "boom" }), "error"},
		{"shed without error", marshal(func(r *wire.QueryLogResponse) { r.Events[0].Error = "" }), "without an error"},
		{"not newest-first", marshal(func(r *wire.QueryLogResponse) { r.Events[2].TimeUnixNs = 9999 }), "newest-first"},
		{"stream events without flag", marshal(func(r *wire.QueryLogResponse) { r.Events[2].StreamEvents = 3 }), "stream"},
		{"negative allocation", marshal(func(r *wire.QueryLogResponse) { r.Events[2].AllocBytes = -1 }), "allocation"},
		{"malformed phase", marshal(func(r *wire.QueryLogResponse) {
			r.Events[2].Phases = []obs.PhaseCost{{Name: "", Count: 1}}
		}), "phase"},
	}
	for _, c := range cases {
		err := ValidateQueryLog(c.data)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
