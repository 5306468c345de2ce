package resilience

import (
	"context"
	"testing"
	"time"
)

// TestWallDeadlineErrIsClockDriven: once the wall clock passes the
// deadline, Err() must report DeadlineExceeded immediately — without
// waiting for the runtime timer to fire (which can lag by scheduler
// ticks on virtualized hosts).
func TestWallDeadlineErrIsClockDriven(t *testing.T) {
	d := time.Now().Add(2 * time.Millisecond)
	ctx, cancel := WallDeadline(context.Background(), d)
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(d) {
		t.Fatalf("Deadline() = %v, %v; want %v, true", dl, ok, d)
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() before deadline = %v, want nil", err)
	}
	for time.Now().Before(d) {
	}
	// The very first check after expiry must already see the error.
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() after wall deadline = %v, want DeadlineExceeded", err)
	}
	// Done() still closes (timer-driven, so give it slack).
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done() never closed after deadline")
	}
}

// TestWallDeadlineCancellationWins: a parent cancellation before the
// deadline surfaces as Canceled, not as a premature DeadlineExceeded.
func TestWallDeadlineCancellationWins(t *testing.T) {
	parent, pcancel := context.WithCancel(context.Background())
	ctx, cancel := WallDeadline(parent, time.Now().Add(time.Hour))
	defer cancel()
	pcancel()
	<-ctx.Done()
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("Err() after parent cancel = %v, want Canceled", err)
	}
}

// TestWallDeadlineParentDeadlineWins: an earlier parent deadline caps
// the child's, as with context.WithDeadline.
func TestWallDeadlineParentDeadlineWins(t *testing.T) {
	early := time.Now().Add(time.Millisecond)
	parent, pcancel := context.WithDeadline(context.Background(), early)
	defer pcancel()
	ctx, cancel := WallDeadline(parent, time.Now().Add(time.Hour))
	defer cancel()
	if dl, _ := ctx.Deadline(); !dl.Equal(early) {
		t.Fatalf("Deadline() = %v, want parent's %v", dl, early)
	}
	for time.Now().Before(early) {
	}
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() past parent deadline = %v, want DeadlineExceeded", err)
	}
}
