// Package container provides the small, allocation-conscious data
// structures shared by the graph algorithms in this repository: a FIFO
// queue over int32 identifiers, a bitset, a union-find and a
// union-find with parity (signed union-find), and an index LRU — plus
// ParallelFor, the one worker pool the all-pairs sweeps and the batch
// solver share.
//
// All structures are deliberately monomorphic over int32 node
// identifiers: the signed-graph core stores nodes as int32, and keeping
// the containers concrete keeps the hot BFS loops free of interface
// dispatch and bounds-check noise.
package container

// IntQueue is a FIFO queue of int32 values backed by a growable ring
// buffer. The zero value is ready to use.
type IntQueue struct {
	buf        []int32
	head, tail int // tail == index one past the last element (mod len(buf))
	size       int
}

// NewIntQueue returns a queue with capacity for at least n elements
// before the first reallocation.
func NewIntQueue(n int) *IntQueue {
	if n < 4 {
		n = 4
	}
	return &IntQueue{buf: make([]int32, n)}
}

// Empty reports whether the queue holds no elements.
func (q *IntQueue) Empty() bool { return q.size == 0 }

// Push appends v at the tail.
func (q *IntQueue) Push(v int32) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = v
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.size++
}

// Pop removes and returns the head element. It panics on an empty
// queue; callers are expected to check Empty or Len first, as every BFS
// loop does.
func (q *IntQueue) Pop() int32 {
	if q.size == 0 {
		panic("container: Pop on empty IntQueue")
	}
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return v
}

// Reset drops all elements but keeps the allocated buffer.
func (q *IntQueue) Reset() {
	q.head, q.tail, q.size = 0, 0, 0
}

func (q *IntQueue) grow() {
	nbuf := make([]int32, 2*len(q.buf)+4)
	n := copy(nbuf, q.buf[q.head:])
	copy(nbuf[n:], q.buf[:q.head])
	q.buf = nbuf
	q.head = 0
	q.tail = q.size
}
