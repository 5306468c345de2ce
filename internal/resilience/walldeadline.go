// Package resilience holds the serving layer's wall-clock deadline: a
// context whose Err() turns DeadlineExceeded the instant the wall clock
// passes the deadline, which the degradation budgets of the core-exact
// driver poll.
package resilience

import (
	"context"
	"time"
)

// WallDeadline is context.WithDeadline for polling callers that need the
// deadline honored to wall-clock precision. The standard context flips
// Err() only when the runtime timer fires, and on virtualized hosts with
// coarse ticks that can lag the deadline by one or two scheduler ticks
// (tens of milliseconds) — enough to double a small degradation budget.
// The returned context's Err() instead compares time.Now() against the
// deadline, so a poll site sees DeadlineExceeded the instant the budget
// is spent. Done() still closes via the embedded timer context, so
// select-based waiters keep working (just with the timer's latency).
func WallDeadline(parent context.Context, d time.Time) (context.Context, context.CancelFunc) {
	tctx, cancel := context.WithDeadline(parent, d)
	// An earlier parent deadline wins, exactly as in WithDeadline.
	if eff, ok := tctx.Deadline(); ok && eff.Before(d) {
		d = eff
	}
	return &wallCtx{Context: tctx, d: d}, cancel
}

type wallCtx struct {
	context.Context
	d time.Time
}

func (c *wallCtx) Deadline() (time.Time, bool) { return c.d, true }

func (c *wallCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.d) {
		return context.DeadlineExceeded
	}
	return nil
}
