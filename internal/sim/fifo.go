package sim

// FIFO is a first-in first-out queue that reuses its backing array: the
// consumed prefix is reclaimed in place instead of being sliced away, so
// a queue that drains and refills allocates only while it grows.
//
// Components use it to pair a callback built once with per-call state
// when completions are known to arrive in submission order (a
// one-server Resource, a FIFO link lane): the state goes in the queue and
// the callback pops it, where a closure per call would allocate.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		clear(q.buf[len(q.buf):cap(q.buf)])
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Peek returns a pointer to the oldest item, valid until the next Push
// or Pop. It panics on an empty queue.
func (q *FIFO[T]) Peek() *T { return &q.buf[q.head] }

// Pop removes and returns the oldest item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
