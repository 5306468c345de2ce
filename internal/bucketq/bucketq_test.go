package bucketq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPopMinOrder(t *testing.T) {
	q := New([]int64{5, 1, 3, 1, 9})
	var keys []int64
	for {
		_, k, ok := q.PopMin()
		if !ok {
			break
		}
		keys = append(keys, k)
	}
	want := []int64{1, 1, 3, 5, 9}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("pop sequence %v, want %v", keys, want)
		}
	}
}

func TestDecreaseToMovesItem(t *testing.T) {
	q := New([]int64{5, 7})
	q.DecreaseTo(1, 2, 0)
	v, k, _ := q.PopMin()
	if v != 1 || k != 2 {
		t.Fatalf("got (%d,%d), want (1,2)", v, k)
	}
}

func TestDecreaseToClampsAtFloor(t *testing.T) {
	q := New([]int64{5})
	q.DecreaseTo(0, 1, 3)
	if got := q.Key(0); got != 3 {
		t.Fatalf("key = %d, want clamped 3", got)
	}
}

func TestDecreaseToIgnoresIncreases(t *testing.T) {
	q := New([]int64{2})
	q.DecreaseTo(0, 10, 0)
	if got := q.Key(0); got != 2 {
		t.Fatalf("key = %d, want 2", got)
	}
}

func TestRemove(t *testing.T) {
	q := New([]int64{1, 2, 3})
	q.Remove(0)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	v, _, _ := q.PopMin()
	if v != 1 {
		t.Fatalf("popped %d, want 1", v)
	}
	q.Remove(0) // double remove is a no-op
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestPoppedItemKeyIsMinusOne(t *testing.T) {
	q := New([]int64{4})
	q.PopMin()
	if q.Key(0) != -1 {
		t.Fatalf("Key after pop = %d, want -1", q.Key(0))
	}
	q.DecreaseTo(0, 1, 0) // must not resurrect
	if q.Len() != 0 {
		t.Fatal("DecreaseTo resurrected a popped item")
	}
}

func TestSparseLargeKeys(t *testing.T) {
	q := New([]int64{1 << 40, 3, 1 << 50})
	v, k, _ := q.PopMin()
	if v != 1 || k != 3 {
		t.Fatalf("got (%d,%d), want (1,3)", v, k)
	}
	v, k, _ = q.PopMin()
	if v != 0 || k != 1<<40 {
		t.Fatalf("got (%d,%d), want (0,%d)", v, k, int64(1)<<40)
	}
}

// Property: against a naive implementation, a random interleaving of
// clamped decreases and pops produces identical pop keys, as long as the
// clamping contract (floor = last popped key) is respected.
func TestAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(20))
		}
		q := New(keys)
		naive := append([]int64(nil), keys...)
		cur := int64(0)
		for popped := 0; popped < n; {
			if rng.Intn(2) == 0 {
				// Pop from both.
				v, k, ok := q.PopMin()
				if !ok {
					return false
				}
				if k > cur {
					cur = k
				}
				// Naive pop: min key, any item with that key acceptable —
				// compare keys only.
				minK, minV := int64(1<<62), -1
				for i, kk := range naive {
					if kk >= 0 && kk < minK {
						minK, minV = kk, i
					}
				}
				if minK != k {
					t.Logf("pop key mismatch: got %d want %d", k, minK)
					return false
				}
				naive[minV] = -2 // removed (mark distinct from popped item v)
				if naive[v] >= 0 {
					// The bucket queue popped a different same-key item;
					// align naive with it.
					naive[minV] = naive[v]
					naive[v] = -2
				}
				popped++
			} else {
				v := rng.Intn(n)
				delta := int64(rng.Intn(4))
				if naive[v] >= 0 {
					nk := naive[v] - delta
					if nk < cur {
						nk = cur
					}
					if nk < naive[v] {
						naive[v] = nk
					}
				}
				q.DecreaseTo(v, q.Key(v)-delta, cur)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResetEquivalentToNew: a drained (or half-drained) queue Reset with
// fresh keys must behave exactly like New on those keys, across repeated
// resets of different sizes — the reuse contract the Greed++ peel relies
// on every iteration.
func TestResetEquivalentToNew(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := New([]int64{1})
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(40)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(15))
		}
		q.Reset(keys)
		fresh := New(keys)
		// Interleave pops and random clamped decreases on both queues.
		for {
			if rng.Intn(3) == 0 {
				v := rng.Intn(n)
				nk := int64(rng.Intn(15))
				q.DecreaseTo(v, nk, 0)
				fresh.DecreaseTo(v, nk, 0)
			}
			v1, k1, ok1 := q.PopMin()
			v2, k2, ok2 := fresh.PopMin()
			if ok1 != ok2 || k1 != k2 {
				t.Fatalf("round %d: reset queue popped (%d,%d,%v), fresh (%d,%d,%v)",
					round, v1, k1, ok1, v2, k2, ok2)
			}
			if !ok1 {
				break
			}
			if q.Len() != fresh.Len() {
				t.Fatalf("round %d: live counts diverge %d vs %d", round, q.Len(), fresh.Len())
			}
			// Half the rounds leave the queue partially drained before the
			// next Reset, exercising stale state clearing.
			if q.Len() > 0 && rng.Intn(2*n) == 0 {
				break
			}
		}
	}
}

// TestStoresPopIdentically: the array store and the map store must pop the
// same items in the same order. One random sequence of pops, removals and
// clamped decreases runs on two queues, one holding keys within the array
// bound and one holding the same keys offset by 1<<40, which forces the map
// store. Half the rounds draw keys within 2n, the other half anywhere
// below arrayFloor, so array stores admitted only by the floor (wide key
// ranges over few items: mostly empty buckets for the cursor to scan) are
// checked too. Decrease floors fall below the last popped key, as the
// Greed++ load floors do, so the array store's cursor has to move back. Each round
// Resets both queues into the other store after a partial drain, so state
// left by one store must not leak into the other.
func TestStoresPopIdentically(t *testing.T) {
	const off = int64(1) << 40
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qs := [2]*Queue{New(nil), New(nil)}
		for round := 0; round < 8; round++ {
			n := 1 + rng.Intn(60)
			span := 2*n + 1
			if round%4 >= 2 {
				span = arrayFloor
			}
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(span))
			}
			var base [2]int64 // the offset of the keys queue i holds
			base[round%2] = off
			for i, q := range qs {
				shifted := make([]int64, n)
				for v, k := range keys {
					shifted[v] = k + base[i]
				}
				q.Reset(shifted)
				if q.dense != (base[i] == 0) {
					t.Logf("round %d: queue %d dense=%v with offset %d", round, i, q.dense, base[i])
					return false
				}
			}
			last := int64(0)
			for qs[0].Len() > 0 && rng.Intn(8*n) != 0 {
				switch r := rng.Intn(6); {
				case r < 2:
					var vs [2]int
					var ks [2]int64
					for i, q := range qs {
						v, k, _ := q.PopMin()
						vs[i], ks[i] = v, k-base[i]
					}
					if vs[0] != vs[1] || ks[0] != ks[1] {
						t.Logf("round %d: popped (%d,%d) and (%d,%d)", round, vs[0], ks[0], vs[1], ks[1])
						return false
					}
					last = ks[0]
				case r == 2:
					v := rng.Intn(n)
					for _, q := range qs {
						q.Remove(v)
					}
				default:
					v := rng.Intn(n)
					k := qs[0].Key(v)
					if k < 0 {
						continue
					}
					k -= base[0]
					newKey := rng.Int63n(k + 1)
					floor := rng.Int63n(last + 1)
					for i, q := range qs {
						q.DecreaseTo(v, newKey+base[i], floor+base[i])
					}
				}
				if qs[0].Len() != qs[1].Len() {
					t.Logf("round %d: live counts %d and %d", round, qs[0].Len(), qs[1].Len())
					return false
				}
				for v := 0; v < n; v++ {
					k0, k1 := qs[0].Key(v), qs[1].Key(v)
					if (k0 < 0) != (k1 < 0) || (k0 >= 0 && k0-base[0] != k1-base[1]) {
						t.Logf("round %d: item %d keys %d and %d", round, v, k0, k1)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestArrayStoreBound: keys below arrayFloor, or up to 2n for n items,
// take the array store; anything larger or negative the map store.
func TestArrayStoreBound(t *testing.T) {
	// wide returns n items, all of key 0 but the last, which has key max.
	wide := func(n int, max int64) []int64 {
		keys := make([]int64, n)
		keys[n-1] = max
		return keys
	}
	const big = arrayFloor // as many items, whose 2n is twice the floor
	for _, tc := range []struct {
		keys  []int64
		dense bool
	}{
		{nil, true},
		{[]int64{0, 1, 2}, true},
		{[]int64{3, 2*2 + 64}, true},
		{[]int64{3, 2*2 + 65}, true}, // above 2n+64: by the floor alone
		{[]int64{3, arrayFloor - 1}, true},
		{[]int64{3, arrayFloor}, false},
		{wide(big, 2*big), true},
		{wide(big, 2*big+1), false},
		{[]int64{-1, 0}, false},
		{[]int64{1 << 40}, false},
	} {
		if got := New(tc.keys).dense; got != tc.dense {
			t.Errorf("keys %v: dense = %v, want %v", tc.keys, got, tc.dense)
		}
	}
}
