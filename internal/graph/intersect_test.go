package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// naiveIntersect is the reference: a plain two-pointer merge.
func naiveIntersect(a, b []int32) []int32 {
	out := []int32{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// sortedSet draws k distinct values from [0, universe) in increasing order.
func sortedSet(rng *rand.Rand, k, universe int) []int32 {
	if k > universe {
		k = universe
	}
	seen := make(map[int32]bool, k)
	s := make([]int32, 0, k)
	for len(s) < k {
		x := int32(rng.Intn(universe))
		if !seen[x] {
			seen[x] = true
			s = append(s, x)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func checkIntersect(t *testing.T, a, b []int32) {
	t.Helper()
	want := naiveIntersect(a, b)
	for _, args := range [][2][]int32{{a, b}, {b, a}} {
		got := IntersectSorted(args[0], args[1], nil)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("IntersectSorted(%v, %v) = %v, want %v", args[0], args[1], got, want)
		}
	}
}

func seq(lo, hi, step int32) []int32 {
	var s []int32
	for x := lo; x < hi; x += step {
		s = append(s, x)
	}
	return s
}

// TestIntersectSortedTable covers the edge shapes on both sides of the
// gallop threshold: empty, disjoint, subset and equal inputs.
func TestIntersectSortedTable(t *testing.T) {
	long := seq(0, 2000, 1)
	cases := []struct {
		name string
		a, b []int32
	}{
		{"both empty", nil, nil},
		{"one empty", nil, long},
		{"disjoint interleaved", seq(0, 100, 2), seq(1, 100, 2)},
		{"disjoint ranges", seq(0, 10, 1), seq(100, 1000, 1)},
		{"short below long", []int32{-5, -1}, long},
		{"short above long", []int32{5000, 6000}, long},
		{"subset merge", seq(0, 100, 3), seq(0, 100, 1)},
		{"subset gallop", seq(0, 2000, 211), long},
		{"equal", seq(0, 500, 7), seq(0, 500, 7)},
		{"single hit at end", []int32{1999}, long},
		{"single hit at start", []int32{0}, long},
		{"single miss", []int32{2000}, long},
		{"ratio just below threshold", seq(0, 2000, gallopRatio), long[:len(long)-1]},
		{"ratio just above threshold", seq(0, 2000, 2*gallopRatio), long},
		{"negative values", []int32{-30, -7, 4}, seq(-100, 100, 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkIntersect(t, c.a, c.b) })
	}
}

// TestIntersectSortedRatios sweeps size ratios from 1 to far past the
// gallop threshold on random sets, in both argument orders.
func TestIntersectSortedRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, small := range []int{1, 2, 3, 7, 20} {
		for _, ratio := range []int{1, 2, gallopRatio - 1, gallopRatio, gallopRatio + 1, 4 * gallopRatio, 300} {
			for trial := 0; trial < 20; trial++ {
				universe := 2 * small * ratio
				checkIntersect(t, sortedSet(rng, small, universe), sortedSet(rng, small*ratio, universe))
			}
		}
	}
}

// TestIntersectSortedReusesOut: the result is written into out's backing
// array when it has room.
func TestIntersectSortedReusesOut(t *testing.T) {
	buf := make([]int32, 0, 8)
	got := IntersectSorted([]int32{3, 900}, seq(0, 1000, 1), buf)
	if !reflect.DeepEqual(got, []int32{3, 900}) || &got[0] != &buf[:1][0] {
		t.Fatalf("got %v, want [3 900] in the caller's buffer", got)
	}
}

// decodeSorted turns fuzz bytes into a strictly increasing slice: each
// byte is a gap, so every byte string is a valid input.
func decodeSorted(data []byte, start int32) []int32 {
	s := make([]int32, 0, len(data))
	x := start
	for _, d := range data {
		x += int32(d) + 1
		s = append(s, x)
	}
	return s
}

func FuzzIntersectSorted(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3}, int16(0))
	f.Add([]byte{0, 0, 0}, []byte{0, 0, 0}, int16(0))
	f.Add([]byte{40}, make([]byte, 100), int16(-3))
	f.Add([]byte{5, 9, 200}, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, int16(7))
	f.Fuzz(func(t *testing.T, da, db []byte, shift int16) {
		a := decodeSorted(da, 0)
		b := decodeSorted(db, int32(shift))
		checkIntersect(t, a, b)
	})
}

// BenchmarkIntersectSorted measures a short candidate list against a hub
// adjacency list (the peel's shape) and two lists of equal length.
func BenchmarkIntersectSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hub := sortedSet(rng, 1500, 400000)
	few := sortedSet(rng, 12, 400000)
	eqA, eqB := sortedSet(rng, 200, 1000), sortedSet(rng, 200, 1000)
	out := make([]int32, 0, 1500)
	b.Run("skewed", func(b *testing.B) {
		for b.Loop() {
			out = IntersectSorted(few, hub, out)
		}
	})
	b.Run("balanced", func(b *testing.B) {
		for b.Loop() {
			out = IntersectSorted(eqA, eqB, out)
		}
	})
}
