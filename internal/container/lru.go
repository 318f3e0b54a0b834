package container

// IndexLRU tracks recency over a fixed universe of integer handles
// [0, n) with an intrusive doubly linked list: no per-operation
// allocations, O(1) touch/insert/remove, and the caller keeps the
// payload wherever it already lives (a shard table, a cache slot
// array). The compat package's sharded matrix uses it to pick the
// spill victim among resident shards.
//
// A handle is either tracked (after Touch) or untracked (initially,
// or after Remove); Back and PopBack only see tracked handles. The
// zero value is unusable — call NewIndexLRU.
type IndexLRU struct {
	prev, next []int32
	head, tail int32
	len        int
}

// lruNil marks "no node" in the intrusive links; handles are int32
// internally because graph node and shard counts fit comfortably.
const lruNil = int32(-1)

// NewIndexLRU returns an LRU over handles in [0, n).
func NewIndexLRU(n int) *IndexLRU {
	l := &IndexLRU{
		prev: make([]int32, n),
		next: make([]int32, n),
		head: lruNil,
		tail: lruNil,
	}
	for i := range l.prev {
		l.prev[i] = lruNil
		l.next[i] = lruNil
	}
	return l
}

// Len returns the number of tracked handles.
func (l *IndexLRU) Len() int { return l.len }

// Contains reports whether handle i is tracked.
func (l *IndexLRU) Contains(i int) bool {
	return l.prev[i] != lruNil || l.next[i] != lruNil || l.head == int32(i)
}

// Touch marks handle i as most recently used, tracking it first if
// needed.
func (l *IndexLRU) Touch(i int) {
	h := int32(i)
	if l.head == h {
		return
	}
	if l.Contains(i) {
		l.unlink(h)
	} else {
		l.len++
	}
	l.next[h] = l.head
	l.prev[h] = lruNil
	if l.head != lruNil {
		l.prev[l.head] = h
	}
	l.head = h
	if l.tail == lruNil {
		l.tail = h
	}
}

// PopBack removes and returns the least recently used handle, or -1
// when nothing is tracked.
func (l *IndexLRU) PopBack() int {
	t := l.tail
	if t == lruNil {
		return -1
	}
	l.unlink(t)
	l.len--
	return int(t)
}

// Remove untracks handle i; untracked handles are a no-op.
func (l *IndexLRU) Remove(i int) {
	if !l.Contains(i) {
		return
	}
	l.unlink(int32(i))
	l.len--
}

func (l *IndexLRU) unlink(h int32) {
	p, n := l.prev[h], l.next[h]
	if p != lruNil {
		l.next[p] = n
	} else {
		l.head = n
	}
	if n != lruNil {
		l.prev[n] = p
	} else {
		l.tail = p
	}
	l.prev[h] = lruNil
	l.next[h] = lruNil
}
