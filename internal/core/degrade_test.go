package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/motif"
)

// checkAgainstExact asserts the degradation invariants of one result
// against the known exact optimum: a non-degraded result IS the optimum;
// a degraded one carries a bound interval that contains it, with the
// returned witness realizing the interval's lower end.
func checkAgainstExact(t *testing.T, tag string, res, exact *Result) bool {
	t.Helper()
	if !res.Degraded {
		if res.Density.Cmp(exact.Density) != 0 {
			t.Logf("%s: non-degraded density %v, exact %v", tag, res.Density, exact.Density)
			return false
		}
		if res.Bound != (Bound{}) {
			t.Logf("%s: exact result carries a bound %+v", tag, res.Bound)
			return false
		}
		return true
	}
	if res.Bound.Lower.Cmp(res.Density) != 0 {
		t.Logf("%s: bound lower %v is not the returned density %v", tag, res.Bound.Lower, res.Density)
		return false
	}
	if res.Density.Cmp(exact.Density) > 0 {
		t.Logf("%s: degraded density %v exceeds exact %v", tag, res.Density, exact.Density)
		return false
	}
	if exact.Density.CmpFloat(res.Bound.Upper) > 0 {
		t.Logf("%s: exact %v above bound upper %v", tag, exact.Density, res.Bound.Upper)
		return false
	}
	// Degraded means the interval is genuinely open: upper strictly
	// above what was achieved (otherwise the run proved exactness).
	if res.Density.CmpFloat(res.Bound.Upper) >= 0 {
		t.Logf("%s: degraded but lower %v >= upper %v", tag, res.Density, res.Bound.Upper)
		return false
	}
	return true
}

func TestGapBoundsContainExact(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.GNM(14, 34, seed)
		for _, h := range []int{2, 3} {
			exact := runExact(t, g, motif.Clique{H: h}, false)
			for _, gap := range []float64{0.05, 0.25, 1.0} {
				res, err := CoreExact(context.Background(), g, motif.Clique{H: h}, Options{Gap: gap}, nil, nil)
				if err != nil {
					t.Logf("seed %d h=%d gap=%g: %v", seed, h, gap, err)
					return false
				}
				if !checkAgainstExact(t, "gap", res, exact) {
					return false
				}
				if res.Degraded {
					// The gap certificate itself: upper within (1+gap) of
					// the certified lower bound.
					if res.Bound.Upper > res.Density.Float()*(1+gap)*(1+1e-12) {
						t.Logf("seed %d h=%d gap=%g: upper %v beyond (1+gap)*lower %v",
							seed, h, gap, res.Bound.Upper, res.Density.Float()*(1+gap))
						return false
					}
				}
				// Witness recount: the returned set's density is the bound's
				// lower end, exactly.
				if len(res.Vertices) > 0 {
					den, _ := densityOf(g, motif.Clique{H: h}, res.Vertices)
					if den.Cmp(res.Density) != 0 {
						t.Logf("seed %d h=%d gap=%g: witness recount %v != %v", seed, h, gap, den, res.Density)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineBoundsContainExact(t *testing.T) {
	// Sweep deadlines from "fires during planning" to "never fires": each
	// outcome class has its own contract, and which class a deadline
	// lands in is timing-dependent — the invariants must hold either way.
	deadlines := []time.Duration{time.Nanosecond, 50 * time.Microsecond,
		500 * time.Microsecond, 5 * time.Millisecond, time.Minute}
	f := func(seed int64) bool {
		g := gen.GNM(16, 40, seed)
		exact := runExact(t, g, motif.Clique{H: 3}, false)
		for _, d := range deadlines {
			res, err := CoreExact(context.Background(), g, motif.Clique{H: 3}, Options{Deadline: d}, nil, nil)
			if err != nil {
				// Only a mid-plan deadline may error, and only with the
				// context's own error.
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Logf("seed %d deadline=%v: non-deadline error %v", seed, d, err)
					return false
				}
				continue
			}
			if !checkAgainstExact(t, "deadline", res, exact) {
				return false
			}
			if len(res.Vertices) > 0 {
				den, _ := densityOf(g, motif.Clique{H: 3}, res.Vertices)
				if den.Cmp(res.Density) != 0 {
					t.Logf("seed %d deadline=%v: witness recount %v != %v", seed, d, den, res.Density)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineNeverMasksRealCancellation(t *testing.T) {
	g := gen.GNM(16, 40, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Outer ctx dead: the run must error, never "degrade" its way past a
	// real cancellation — even with a deadline armed.
	if _, err := CoreExact(ctx, g, motif.Clique{H: 3}, Options{Deadline: time.Minute}, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned err=%v, want context.Canceled", err)
	}
}

func TestGenerousBudgetsStayExact(t *testing.T) {
	// A budget that never binds must leave the result bit-identical to
	// the unbudgeted run: same density, not degraded.
	f := func(seed int64) bool {
		g := gen.GNM(12, 30, seed)
		exact := coreExact(t, g, motif.Clique{H: 2}, DefaultOptions())
		res, err := CoreExact(context.Background(), g, motif.Clique{H: 2}, Options{Deadline: time.Hour}, nil, nil)
		if err != nil || res.Degraded || res.Density.Cmp(exact.Density) != 0 {
			t.Logf("seed %d: deadline=1h err=%v degraded=%v density %v want %v",
				seed, err, res != nil && res.Degraded, res.Density, exact.Density)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
