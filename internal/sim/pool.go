package sim

import "math/bits"

// Free lists for the components' recycled objects. A loop is
// single-threaded, so plain LIFO lists are deterministic: the same
// sequence of gets and puts reproduces the same reuse pattern every run,
// unlike sync.Pool, whose GC-driven emptying varies from run to run.

// FreeList is a LIFO free list. The zero value is empty and ready.
type FreeList[T any] struct{ items []T }

// Len returns the number of items held.
func (l *FreeList[T]) Len() int { return len(l.items) }

// Get removes and returns the most recently put item; ok is false (and v
// the zero value) when the list is empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	last := len(l.items) - 1
	if last < 0 {
		return v, false
	}
	v = l.items[last]
	var zero T
	l.items[last] = zero
	l.items = l.items[:last]
	return v, true
}

// Put adds v. The caller must not touch v afterwards: the next Get hands
// it out.
func (l *FreeList[T]) Put(v T) { l.items = append(l.items, v) }

// bufClasses caps BufPool's size classes; class c holds capacity 1<<c,
// so the largest pooled buffer is 128 MB.
const bufClasses = 28

// BufPool recycles byte buffers by power-of-two capacity class. Get
// rounds its request up to the class size, so a recycled buffer serves
// any later request of its class; buffers beyond the largest class are
// allocated exactly and never pooled. A class holds at most as many
// buffers as were once in use at the same time. The zero value is ready.
type BufPool struct {
	classes [bufClasses]FreeList[[]byte]
}

// Get returns a length-n buffer, recycled when its class has one.
func (p *BufPool) Get(n int) []byte {
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	if c >= bufClasses {
		return make([]byte, n)
	}
	if b, ok := p.classes[c].Get(); ok {
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// Put returns a buffer to the pool. The caller must not touch it
// afterwards: the next Get of its class hands it out.
func (p *BufPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Floor class: the class capacity never exceeds cap(b), so a Get
	// serving n <= 1<<c always fits.
	c := bits.Len(uint(cap(b))) - 1
	if c >= bufClasses {
		return
	}
	p.classes[c].Put(b[:0])
}
