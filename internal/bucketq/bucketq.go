// Package bucketq implements the bin-sort bucket queue of Batagelj &
// Zaversnik behind the repository's Ψ-peeling loops: the (k,Ψ)-core peel
// of psicore (whose residual-density tracking is PeelApp) and the Greed++
// peel of iterative. The classical k-core peel runs the same discipline
// in a loop of its own (kcore.Decompose), since its keys are plain
// degrees. The queue supports O(1) pop-min and O(1) amortized clamped key
// decreases over non-negative int64 keys.
//
// Each bucket is a doubly linked list of items, and the queue keeps its
// bucket heads in one of two stores, picked by New and Reset from the
// keys they are given:
//
//   - When the largest key is at most 2n for n items, or below arrayFloor
//     whatever n is, the heads live in a slice indexed by key, scanned by
//     a min cursor. Keys never rise, so the initial maximum bounds the
//     slice until the next Reset. Within 2n the slice costs at most as
//     much as the item links the queue holds anyway; the floor lets a
//     small queue with a wide key range (a compacted clique peel: a few
//     thousand vertices, Ψ-degrees past ten thousand) keep array buckets
//     for at most 256 KiB of heads, where a heap would cost a log factor
//     on every decrease. A decrease below the cursor moves the cursor
//     back, as the Greed++ peel's load floors require.
//   - Larger key ranges (pattern degrees can be large and sparse) keep the
//     heads in a map, with a lazy min-heap tracking the occupied keys.
//
// Both stores give the same pop order: an item enters its bucket at the
// front and PopMin takes the front of the lowest occupied bucket, so items
// of equal key leave last-in first-out, and New/Reset insert items in
// index order. The choice of store is never visible to callers.
package bucketq

import (
	"container/heap"
	"math"
)

// Queue is a bucket priority queue over items 0..n-1 with int64 keys.
type Queue struct {
	key  []int64 // current key of each item; -1 when removed
	next []int32
	prev []int32
	live int

	// Array store, used when dense: heads[k] is the first item of bucket k,
	// and no live item has a key below cursor.
	dense  bool
	heads  []int32
	cursor int64

	// Map store, used otherwise.
	head map[int64]int32
	keys keyHeap // lazy min-heap of (possibly stale) bucket keys
}

const nilItem = int32(-1)

// arrayFloor is the number of bucket heads (256 KiB of int32) the array
// store may always use, whatever the number of items: keys below it
// never force the map store.
const arrayFloor = 1 << 16

type keyHeap []int64

func (h keyHeap) Len() int            { return len(h) }
func (h keyHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h keyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *keyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// New builds a queue holding every item v with initial key keys[v].
func New(keys []int64) *Queue {
	q := &Queue{}
	q.Reset(keys)
	return q
}

// Reset reinitializes the queue to hold every item v with key keys[v],
// reusing its internal allocations — behaviorally identical to New(keys).
// Iterated peels (the Greed++ pre-solver runs one per iteration on a
// fixed vertex set) reset one queue instead of rebuilding its arrays
// and bucket store every round.
func (q *Queue) Reset(keys []int64) {
	n := len(keys)
	q.key = append(q.key[:0], keys...)
	q.next = growInt32(q.next, n)
	q.prev = growInt32(q.prev, n)
	q.live = n
	minKey, maxKey := int64(math.MaxInt64), int64(-1)
	for _, k := range keys {
		minKey, maxKey = min(minKey, k), max(maxKey, k)
	}
	q.dense = minKey >= 0 && (maxKey < arrayFloor || maxKey <= 2*int64(n))
	clear(q.head)
	q.keys = q.keys[:0]
	if q.dense {
		q.heads = growInt32(q.heads, int(maxKey+1))
		for k := range q.heads {
			q.heads[k] = nilItem
		}
		q.cursor = minKey
	} else if q.head == nil {
		q.head = make(map[int64]int32)
	}
	for v := range keys {
		q.push(int32(v), keys[v], false)
	}
	if !q.dense {
		heap.Init(&q.keys)
	}
}

// growInt32 returns s resized to n elements, reusing its array when large
// enough. Contents are not cleared; callers initialize.
func growInt32(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int32, n)
}

// push puts v at the front of bucket k. In the map store a new bucket key
// is pushed onto the heap when heapify is set, else only appended (Reset
// restores the heap property once, after every push).
func (q *Queue) push(v int32, k int64, heapify bool) {
	var h int32
	if q.dense {
		h = q.heads[k]
		q.heads[k] = v
		if k < q.cursor {
			q.cursor = k
		}
	} else {
		var ok bool
		if h, ok = q.head[k]; !ok {
			h = nilItem
			if heapify {
				heap.Push(&q.keys, k)
			} else {
				q.keys = append(q.keys, k)
			}
		}
		q.head[k] = v
	}
	q.next[v] = h
	q.prev[v] = nilItem
	if h != nilItem {
		q.prev[h] = v
	}
}

func (q *Queue) unlink(v int32, k int64) {
	if q.prev[v] != nilItem {
		q.next[q.prev[v]] = q.next[v]
	} else if q.dense {
		q.heads[k] = q.next[v]
	} else if q.next[v] != nilItem {
		q.head[k] = q.next[v]
	} else {
		delete(q.head, k) // the stale key stays in the heap; PopMin skips it
	}
	if q.next[v] != nilItem {
		q.prev[q.next[v]] = q.prev[v]
	}
	q.next[v], q.prev[v] = nilItem, nilItem
}

// Len returns the number of live items.
func (q *Queue) Len() int { return q.live }

// Key returns the current key of item v, or -1 if v has been popped or
// removed.
func (q *Queue) Key(v int) int64 { return q.key[v] }

// PopMin removes and returns a live item with the minimum key: the most
// recently inserted item of the lowest occupied bucket. ok is false when
// the queue is empty.
func (q *Queue) PopMin() (v int, key int64, ok bool) {
	if q.live == 0 {
		return 0, 0, false
	}
	var h int32
	if q.dense {
		for q.heads[q.cursor] == nilItem {
			q.cursor++
		}
		key, h = q.cursor, q.heads[q.cursor]
	} else {
		for {
			var exists bool
			key = q.keys[0]
			if h, exists = q.head[key]; exists {
				break
			}
			heap.Pop(&q.keys) // stale entry
		}
	}
	q.unlink(h, key)
	q.key[h] = -1
	q.live--
	return int(h), key, true
}

// DecreaseTo lowers the key of item v to max(newKey, floor). It is a no-op
// when v is no longer live or when the clamped key would not decrease.
// The clamped key must be non-negative.
func (q *Queue) DecreaseTo(v int, newKey, floor int64) {
	if q.key[v] < 0 {
		return
	}
	if newKey < floor {
		newKey = floor
	}
	if newKey >= q.key[v] {
		return
	}
	q.unlink(int32(v), q.key[v])
	q.key[v] = newKey
	q.push(int32(v), newKey, true)
}

// Remove deletes item v from the queue without popping it.
func (q *Queue) Remove(v int) {
	if q.key[v] < 0 {
		return
	}
	q.unlink(int32(v), q.key[v])
	q.key[v] = -1
	q.live--
}
