package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkHeap asserts the 4-ary heap invariant and that every event's index
// names its own slot.
func checkHeap(t *testing.T, l *Loop) {
	t.Helper()
	h := l.events
	for i, s := range h {
		if s.ev.index != i {
			t.Fatalf("slot %d holds an event with index %d", i, s.ev.index)
		}
		if s.at != s.ev.at || s.seq != s.ev.seq {
			t.Fatalf("slot %d key (%v,%d) disagrees with its event (%v,%d)", i, s.at, s.seq, s.ev.at, s.ev.seq)
		}
		if i > 0 && s.before(h[(i-1)/4]) {
			t.Fatalf("slot %d sorts before its parent", i)
		}
	}
}

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// TestPropertyHeapMatchesSortedReference drives random interleavings of
// At, After, Post, Cancel and RunUntil against a reference that keeps
// pending events sorted by (at, seq): the loop must fire exactly the
// reference's events, in its order, at its times. Cancellations target
// the root, the last heap slot and random events, and also stale timers
// whose events were recycled; a stale Cancel must report false and leave
// the new occupant scheduled.
func TestPropertyHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { heapTrial(t, seed) })
	}
}

func heapTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	l := NewLoop(seed)
	var ref []refEvent // pending, kept sorted by (at, seq)
	var seq uint64
	timers := map[int]Timer{}
	var dead []Timer // fired or canceled handles
	var got, want []string
	nextID := 0

	insert := func(e refEvent) {
		i := sort.Search(len(ref), func(i int) bool {
			return ref[i].at > e.at || (ref[i].at == e.at && ref[i].seq > e.seq)
		})
		ref = append(ref, refEvent{})
		copy(ref[i+1:], ref[i:])
		ref[i] = e
	}
	removeRef := func(id int) {
		for i, e := range ref {
			if e.id == id {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
		t.Fatalf("event %d missing from the reference", id)
	}
	schedule := func(kind int) {
		id := nextID
		nextID++
		fire := func() {
			got = append(got, fmt.Sprintf("%d@%v", id, l.Now()))
			dead = append(dead, timers[id])
			delete(timers, id)
		}
		var at Time
		var tm Timer
		switch kind {
		case 0: // At, sometimes in the past (clamped to now)
			at = l.Now() + Time(rng.Intn(60)) - 10
			tm = l.At(at, fire)
		case 1:
			d := Time(rng.Intn(40))
			at = l.Now() + d
			tm = l.After(d, fire)
		default:
			at = l.Now()
			tm = l.Post(fire)
		}
		if at < l.Now() {
			at = l.Now()
		}
		seq++
		insert(refEvent{at: at, seq: seq, id: id})
		timers[id] = tm
	}
	cancel := func(id int) {
		tm := timers[id]
		if !tm.Cancel() {
			t.Fatalf("Cancel of pending event %d failed", id)
		}
		if tm.Pending() {
			t.Fatalf("event %d still pending after Cancel", id)
		}
		removeRef(id)
		delete(timers, id)
		dead = append(dead, tm)
	}
	idOf := func(ev *event) int {
		for id, tm := range timers {
			if tm.ev == ev {
				return id
			}
		}
		t.Fatal("heap event has no live timer")
		return -1
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			schedule(rng.Intn(3))
		case op == 5 && len(l.events) > 0:
			cancel(idOf(l.events[0].ev)) // the root
		case op == 6 && len(l.events) > 0:
			cancel(idOf(l.events[len(l.events)-1].ev)) // the last slot
		case op == 7 && len(ref) > 0:
			cancel(ref[rng.Intn(len(ref))].id)
		case op == 8 && len(dead) > 0:
			stale := dead[rng.Intn(len(dead))]
			if stale.Cancel() || stale.Pending() {
				t.Fatal("a stale timer acted on a recycled event")
			}
		default:
			horizon := l.Now() + Time(rng.Intn(30))
			for len(ref) > 0 && ref[0].at <= horizon {
				want = append(want, fmt.Sprintf("%d@%v", ref[0].id, ref[0].at))
				ref = ref[1:]
			}
			l.RunUntil(horizon)
			if l.Now() != horizon {
				t.Fatalf("RunUntil(%v) left the clock at %v", horizon, l.Now())
			}
		}
		checkHeap(t, l)
		if l.Pending() != len(ref) {
			t.Fatalf("step %d: %d pending, reference has %d", step, l.Pending(), len(ref))
		}
	}
	for _, e := range ref {
		want = append(want, fmt.Sprintf("%d@%v", e.id, e.at))
	}
	l.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order diverges from the (at, seq) reference:\n got %v\nwant %v", got, want)
	}
}

// BenchmarkLoop measures one At plus its firing Step against a heap that
// already holds pending far-future events, the shape of a replica's steady
// state (request timers, heartbeats and batch deadlines outstanding).
func BenchmarkLoop(b *testing.B) {
	for _, pending := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			l := NewLoop(1)
			park := Time(1) << 40
			fn := func() {}
			for i := 0; i < pending; i++ {
				l.At(park+Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.After(1, fn)
				l.Step()
			}
		})
	}
}
