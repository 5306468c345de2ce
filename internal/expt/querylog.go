package expt

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/service/wire"
)

// validOutcomes is the engine's closed outcome vocabulary — shared by
// dsd_queries_total's outcome label and QueryEvent.Outcome.
var validOutcomes = map[string]bool{
	"ok":        true,
	"cache_hit": true,
	"shed":      true,
	"timeout":   true,
	"error":     true,
}

// ValidateQueryLog checks that data is a well-formed GET /v1/querylog
// response: the schema tag, counter consistency (every offered event
// was either retained or sampled away), and per-event invariants —
// known outcomes, flag/outcome agreement, newest-first ordering, and
// well-formed phase cost tables. CI runs it against a live
// scrape after the e2e traffic mix (`dsdbench -validate-querylog`), so
// a malformed wide event fails the pipeline, not a dashboard.
func ValidateQueryLog(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep wire.QueryLogResponse
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("query log: %w", err)
	}
	if rep.Schema != wire.QueryLogSchema {
		return fmt.Errorf("query log: schema %q, want %q", rep.Schema, wire.QueryLogSchema)
	}
	if rep.Capacity < 0 {
		return fmt.Errorf("query log: negative capacity %d", rep.Capacity)
	}
	if rep.Capacity > 0 && len(rep.Events) > rep.Capacity {
		return fmt.Errorf("query log: %d events exceed capacity %d", len(rep.Events), rep.Capacity)
	}
	if rep.Retained+rep.Sampled != rep.Seen {
		return fmt.Errorf("query log: retained %d + sampled %d != seen %d",
			rep.Retained, rep.Sampled, rep.Seen)
	}
	if n := uint64(len(rep.Events)); n > rep.Retained {
		return fmt.Errorf("query log: %d events but only %d retained", n, rep.Retained)
	}
	for i, ev := range rep.Events {
		if ev == nil {
			return fmt.Errorf("query log: event %d is null", i)
		}
		if ev.TimeUnixNs <= 0 {
			return fmt.Errorf("query log: event %d: missing timestamp", i)
		}
		if i > 0 && ev.TimeUnixNs > rep.Events[i-1].TimeUnixNs {
			return fmt.Errorf("query log: events not newest-first at %d", i)
		}
		if ev.Graph == "" || ev.Algo == "" {
			return fmt.Errorf("query log: event %d: missing graph/algo labels", i)
		}
		if !validOutcomes[ev.Outcome] {
			return fmt.Errorf("query log: event %d: unknown outcome %q", i, ev.Outcome)
		}
		if ev.DurNs < 0 || ev.QueueWaitNs < 0 {
			return fmt.Errorf("query log: event %d: negative duration", i)
		}
		if ev.Shed != (ev.Outcome == "shed") {
			return fmt.Errorf("query log: event %d: shed flag disagrees with outcome %q", i, ev.Outcome)
		}
		if ev.Cached != (ev.Outcome == "cache_hit") {
			return fmt.Errorf("query log: event %d: cached flag disagrees with outcome %q", i, ev.Outcome)
		}
		switch ev.Outcome {
		case "ok", "cache_hit":
			if ev.Error != "" {
				return fmt.Errorf("query log: event %d: outcome %q carries error %q", i, ev.Outcome, ev.Error)
			}
		default:
			if ev.Error == "" {
				return fmt.Errorf("query log: event %d: outcome %q without an error", i, ev.Outcome)
			}
		}
		if ev.StreamEvents > 0 && !ev.Stream {
			return fmt.Errorf("query log: event %d: stream_events without the stream flag", i)
		}
		if ev.AllocBytes < 0 || ev.Allocs < 0 {
			return fmt.Errorf("query log: event %d: negative allocation", i)
		}
		for _, p := range ev.Phases {
			if p.Name == "" || p.Count <= 0 || p.DurNs < 0 {
				return fmt.Errorf("query log: event %d: malformed phase cost %+v", i, p)
			}
		}
	}
	return nil
}
