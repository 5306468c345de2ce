package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/rational"
)

// emitterOpt is the hidden optimum the emitter tests certify around:
// every lower bound fed in is at most emitterOpt and every upper bound at
// least emitterOpt. It is exactly representable, so float rounding cannot
// move a bound across it.
var emitterOpt = rational.New(5, 2)

// randomLower returns a density in [0, emitterOpt], as a real witness
// would have.
func randomLower(rng *rand.Rand) rational.R {
	den := int64(1 + rng.Intn(12))
	return rational.New(rng.Int63n(5*den/2+1), den)
}

// randomUpper returns a certified upper bound: emitterOpt or above.
func randomUpper(rng *rand.Rand) float64 {
	return emitterOpt.Float() + float64(rng.Intn(40))/8
}

// hammer drives e from workers goroutines with random, individually
// certified Improve/Tighten/TightenComp/Install calls.
func hammer(e *Emitter, workers, ops int, seed int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch rng.Intn(4) {
				case 0:
					e.Improve(randomLower(rng), []int32{int32(i)}, StageSearch)
				case 1:
					e.Tighten(randomUpper(rng), StageApprox)
				case 2:
					e.TightenComp(rng.Intn(4), randomUpper(rng), StageSearch)
				default:
					uppers := make([]float64, 3)
					for j := range uppers {
						uppers[j] = randomUpper(rng)
					}
					e.Install(randomLower(rng), []int32{-int32(i)}, uppers, StagePlan)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEmitterInvariants checks the stream contract under concurrent
// publishers (run it with -race): every event has lower ≤ upper, lower
// ends never fall and upper ends never rise, every non-final event
// strictly tightens one end, and the final event comes last.
func TestEmitterInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var events []Answer // appended under the emitter lock
		e := NewEmitter(func(a Answer) { events = append(events, a) })
		hammer(e, 4, 300, 10*seed)

		lower, witness, upper := e.Snapshot()
		res := &Result{Vertices: witness, Density: lower}
		if lower.Cmp(emitterOpt) < 0 {
			res.Degraded = true
			res.Bound = Bound{Lower: lower, Upper: upper + 1} // clamped to upper
		}
		e.Final(res)

		if len(events) == 0 {
			t.Fatalf("seed %d: no events", seed)
		}
		prevLower, prevUpper := rational.R{}, math.Inf(1)
		for i, a := range events {
			if a.Density.Float() > a.Bound {
				t.Fatalf("seed %d event %d: lower %v above upper %v", seed, i, a.Density, a.Bound)
			}
			if a.Density.Cmp(prevLower) < 0 || a.Bound > prevUpper {
				t.Fatalf("seed %d event %d: [%v, %v] widens [%v, %v]", seed, i, a.Density, a.Bound, prevLower, prevUpper)
			}
			if !a.Final && !a.Density.Greater(prevLower) && a.Bound == prevUpper {
				t.Fatalf("seed %d event %d: [%v, %v] tightens nothing", seed, i, a.Density, a.Bound)
			}
			if a.Final != (i == len(events)-1) {
				t.Fatalf("seed %d event %d of %d: Final = %v", seed, i, len(events), a.Final)
			}
			prevLower, prevUpper = a.Density, a.Bound
		}
		last := events[len(events)-1]
		if last.Stage != StageFinal || last.Degraded != res.Degraded || last.Density != lower {
			t.Fatalf("seed %d: final event %+v, want the result %+v", seed, last, res)
		}
	}
}

// TestEmitterSilentAfterFinal: a degraded final leaves the interval open,
// yet neither a second Final nor racing publishers whose bounds would
// tighten it may emit anything after it.
func TestEmitterSilentAfterFinal(t *testing.T) {
	var events []Answer // appended under the emitter lock
	e := NewEmitter(func(a Answer) { events = append(events, a) })
	e.Install(rational.New(1, 1), []int32{0}, []float64{emitterOpt.Float() + 8}, StagePlan)
	lower, witness, upper := e.Snapshot()
	e.Final(&Result{Vertices: witness, Density: lower, Degraded: true,
		Bound: Bound{Lower: lower, Upper: upper}})
	var again sync.WaitGroup
	again.Add(1)
	go func() {
		defer again.Done()
		e.Final(&Result{Vertices: witness, Density: emitterOpt})
	}()
	hammer(e, 3, 200, 7)
	again.Wait()
	if len(events) != 2 || !events[1].Final || events[1].Bound != upper {
		t.Fatalf("events %+v, want the plan event then one degraded final at upper %v", events, upper)
	}
}

// TestEmitterTightenCompIgnoresUnknownSlots: component updates before
// Install, or outside the installed array, change nothing and emit
// nothing.
func TestEmitterTightenCompIgnoresUnknownSlots(t *testing.T) {
	n := 0
	e := NewEmitter(func(Answer) { n++ })
	e.TightenComp(0, 1, StageSearch)
	e.Install(rational.New(1, 1), []int32{0}, []float64{4, 3}, StagePlan)
	e.TightenComp(2, 0.5, StageSearch)
	e.TightenComp(-1, 0.5, StageSearch)
	if _, _, upper := e.Snapshot(); n != 1 || upper != 4 {
		t.Fatalf("%d events, upper %v; want 1 event, upper 4", n, upper)
	}
	e.TightenComp(0, 2, StageSearch) // the global upper is now max(1, 2, 3)
	if _, _, upper := e.Snapshot(); n != 2 || upper != 3 {
		t.Fatalf("%d events, upper %v; want 2 events, upper 3", n, upper)
	}
}

// TestConflateKeepsLatest: with nobody receiving, the cap-1 channel holds
// only the latest answer; with a slow receiver, what arrives is an
// in-order subsequence ending at the producer's last answer.
func TestConflateKeepsLatest(t *testing.T) {
	ch := make(chan Answer, 1)
	for i := int64(1); i <= 10; i++ {
		Conflate(ch, Answer{Density: rational.New(i, 1)})
	}
	if len(ch) != 1 {
		t.Fatalf("channel holds %d answers, want 1", len(ch))
	}
	if a := <-ch; a.Density != rational.New(10, 1) {
		t.Fatalf("kept %v, want the latest (10)", a.Density)
	}

	const total = 2000
	done := make(chan struct{})
	var got []int64
	go func() {
		defer close(done)
		for a := range ch {
			got = append(got, a.Density.Num)
			if a.Final {
				return
			}
		}
	}()
	for i := int64(1); i <= total; i++ {
		Conflate(ch, Answer{Density: rational.New(i, 1), Final: i == total})
	}
	<-done
	if len(got) == 0 || got[len(got)-1] != total {
		t.Fatalf("last received %v, want %d", got, total)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("received out of order: %d after %d", got[i], got[i-1])
		}
	}
}

// TestEmitterUpperTracksMaxSlot: with the lower end at zero, the global
// upper end is the largest component slot after every update, for any
// number of components.
func TestEmitterUpperTracksMaxSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		slots := make([]float64, n)
		for i := range slots {
			slots[i] = float64(rng.Intn(100))
		}
		e := NewEmitter(nil)
		e.Install(rational.Zero, nil, slots, StagePlan)
		for step := 0; step < 3*n; step++ {
			i := rng.Intn(n)
			v := slots[i] * rng.Float64()
			slots[i] = min(slots[i], v)
			e.TightenComp(i, v, StageSearch)
			if _, _, upper := e.Snapshot(); upper != slices.Max(slots) {
				t.Fatalf("n=%d step %d: upper %v, max slot %v", n, step, upper, slices.Max(slots))
			}
		}
	}
}
