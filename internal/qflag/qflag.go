// Package qflag is the shared command-line Query builder: one place
// where flag values become a dsd.Query, so cmd/dsd, cmd/dsdd, and
// cmd/dsdbench agree on flag semantics (motif names, algorithm names,
// "-1 = GOMAXPROCS" workers, "negative = off" iterative budgets) instead
// of re-implementing them per binary.
//
// Each CLI registers only the flags it exposes, under its own names:
//
//	b := qflag.New()
//	b.Motif(fs, "motif", "edge")
//	b.Algo(fs, "algo", "")
//	b.Workers(fs, "algo-workers")   // dsdd's name for the same knob
//	...
//	q, err := b.Query()
package qflag

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	dsd "repro"
)

// Builder accumulates registered flags and assembles the Query.
type Builder struct {
	motif     *string
	algo      *string
	workers   *int
	iterative *int
	anchors   *string
	atLeast   *int
	eps       *float64
	deadline  *time.Duration
	gap       *float64
}

// New returns an empty builder.
func New() *Builder { return &Builder{} }

// Motif registers the pattern-name flag (any dsd.PatternByName name).
func (b *Builder) Motif(fs *flag.FlagSet, name, value string) {
	b.motif = fs.String(name, value, "motif: edge, triangle, h-clique, or a pattern name")
}

// Algo registers the algorithm flag. An empty value infers the
// algorithm: anchored / at-least / batch-peel when their parameter flag
// is set, core-exact otherwise.
func (b *Builder) Algo(fs *flag.FlagSet, name, value string) {
	b.algo = fs.String(name, value,
		"algorithm: exact, core-exact, peel, inc, core-app, nucleus, anchored, batch-peel, at-least (\"\" = auto)")
}

// Workers registers the intra-query parallelism flag (0 or 1 = serial,
// -1 = GOMAXPROCS).
func (b *Builder) Workers(fs *flag.FlagSet, name, usage string) {
	b.workers = fs.Int(name, 0, usage)
}

// Iterative registers the budget flag of the stream's Greed++ rung
// (0 = default, negative = skip the rung, positive = iteration budget).
func (b *Builder) Iterative(fs *flag.FlagSet, name, usage string) {
	b.iterative = fs.Int(name, 0, usage)
}

// Anchors registers the anchored-query vertex list flag ("1,2,5").
func (b *Builder) Anchors(fs *flag.FlagSet, name string) {
	b.anchors = fs.String(name, "", "anchored query vertices as a comma-separated list (selects algo=anchored)")
}

// AtLeast registers the minimum-answer-size flag.
func (b *Builder) AtLeast(fs *flag.FlagSet, name string) {
	b.atLeast = fs.Int(name, 0, "minimum answer size k ≥ 1 (selects algo=at-least)")
}

// Eps registers the batch-peel slack flag.
func (b *Builder) Eps(fs *flag.FlagSet, name string) {
	b.eps = fs.Float64(name, 0, "batch-peel slack ε > 0 (selects algo=batch-peel)")
}

// Deadline registers the core-exact degradation deadline flag: a
// wall-clock budget after which the best certified answer returns with
// Degraded bounds instead of running to exactness (0 = off).
func (b *Builder) Deadline(fs *flag.FlagSet, name string) {
	b.deadline = fs.Duration(name, 0,
		"core-exact degradation deadline, e.g. 500ms: return the best certified answer with bounds when exceeded (0 = exact)")
}

// Gap registers the core-exact accuracy-budget flag: component searches
// may stop once their bound interval is within this relative gap
// (0 = exact).
func (b *Builder) Gap(fs *flag.FlagSet, name string) {
	b.gap = fs.Float64(name, 0,
		"core-exact relative accuracy budget, e.g. 0.05: stop component searches within this gap of certainty (0 = exact)")
}

// BudgetSet reports whether a parsed anytime budget flag (deadline or
// gap) carries a non-zero value — the flags that only make sense on the
// core-exact engine.
func (b *Builder) BudgetSet() bool {
	return (b.deadline != nil && *b.deadline > 0) || (b.gap != nil && *b.gap > 0)
}

// InferCoreExact rewrites the parsed algorithm flag to core-exact and
// returns the name it replaced, or "" when nothing changed (the flag was
// unset, unregistered, or already core-exact). CLIs call it when an
// anytime flag (-deadline, -gap, -stream) was given with a conflicting
// algorithm, so the budget wins with a warning instead of erroring in
// Query's normalization.
func (b *Builder) InferCoreExact() string {
	if b.algo == nil {
		return ""
	}
	old := *b.algo
	if old == "" || old == string(dsd.AlgoCoreExact) {
		return ""
	}
	*b.algo = string(dsd.AlgoCoreExact)
	return old
}

// Query assembles the dsd.Query from the registered flags' parsed values
// and normalizes it, so flag mistakes (unknown motif or algorithm,
// conflicting variant parameters) surface here with the library's
// messages instead of mid-run.
func (b *Builder) Query() (dsd.Query, error) {
	var q dsd.Query
	if b.motif != nil && *b.motif != "" {
		p, err := dsd.PatternByName(*b.motif)
		if err != nil {
			return dsd.Query{}, err
		}
		q.Pattern = p
	}
	if b.algo != nil && *b.algo != "" {
		a, err := dsd.ParseAlgo(*b.algo)
		if err != nil {
			return dsd.Query{}, err
		}
		q.Algo = a
	}
	if b.workers != nil {
		q.Workers = *b.workers
		if q.Workers < 0 {
			q.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if b.iterative != nil {
		q.Iterative = *b.iterative
	}
	if b.anchors != nil && *b.anchors != "" {
		anchors, err := parseAnchors(*b.anchors)
		if err != nil {
			return dsd.Query{}, err
		}
		q.Anchors = anchors
	}
	if b.atLeast != nil {
		q.AtLeast = *b.atLeast
	}
	if b.eps != nil {
		q.Eps = *b.eps
	}
	if b.deadline != nil {
		q.Deadline = *b.deadline
	}
	if b.gap != nil {
		q.Gap = *b.gap
	}
	return q.Normalized()
}

// parseAnchors parses "1,2,5" into vertex ids.
func parseAnchors(s string) ([]int32, error) {
	parts := strings.Split(s, ",")
	anchors := make([]int32, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("qflag: bad anchor vertex %q: %w", p, err)
		}
		anchors = append(anchors, int32(v))
	}
	if len(anchors) == 0 {
		return nil, fmt.Errorf("qflag: empty anchor list %q", s)
	}
	return anchors, nil
}
