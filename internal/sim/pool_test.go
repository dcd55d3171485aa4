package sim

import "testing"

func TestFreeListIsLIFO(t *testing.T) {
	var l FreeList[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported an item")
	}
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	for want := 3; want >= 1; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after draining", l.Len())
	}
}

func TestBufPoolReusesByClass(t *testing.T) {
	var p BufPool
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100 and 128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(65) // same class (65..128)
	if &b[:1][0] != &a[:1][0] || len(b) != 65 {
		t.Fatal("Get(65) did not reuse the 128-byte buffer")
	}
	// A buffer whose capacity is not a power of two serves its floor
	// class, so every later Get of that class fits.
	p.Put(make([]byte, 0, 200))
	if c := p.Get(128); cap(c) != 200 {
		t.Fatalf("Get(128) after Put(cap 200): cap %d, want 200", cap(c))
	}
	// Requests beyond the largest class are exact and never pooled.
	if cap(p.Get(0)) != 1 {
		t.Fatal("Get(0) should come from class 0")
	}
	p.Put(make([]byte, 0, 1<<bufClasses))
	for c := range p.classes {
		if p.classes[c].Len() != 0 {
			t.Fatalf("class %d holds %d buffers, want 0", c, p.classes[c].Len())
		}
	}
}
