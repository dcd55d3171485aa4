package rubin

import (
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

// InterestOps is the bitmask of events a RUBIN selection key watches —
// the four interests of paper Section III-B.
type InterestOps uint8

// Interest/readiness bits.
const (
	// OpConnect: an incoming connection request arrived at a
	// ServerChannel.
	OpConnect InterestOps = 1 << iota
	// OpAccept: an outbound connection establishment completed.
	OpAccept
	// OpReceive: a message arrived and is ready for Receive.
	OpReceive
	// OpSend: send capacity became available after exhaustion.
	OpSend
)

// Registrable is a channel type accepted by Selector.Register.
type Registrable interface {
	bindKey(k *SelectionKey)
	readiness() InterestOps
}

// event is one element of the hybrid event queue, carrying either a
// connection notification or a completion notification for a channel
// (paper Figure 2: copies of event-channel and completion-queue elements
// merge into one queue).
type event struct {
	key *SelectionKey
	ops InterestOps
}

// Selector multiplexes RDMA connection and completion events from many
// channels onto one application thread, mirroring the Java NIO selector's
// role in BFT frameworks.
type Selector struct {
	dev *rdma.Device

	// thread is the single selector/application thread; RUBIN-level CPU
	// work (event dispatch, receive copies) serializes here.
	thread *sim.Resource

	keys    []*SelectionKey
	nextKey uint64

	// The hybrid event queue and its event-manager state.
	hybridQ  []event
	dispatch bool
	handler  func([]*SelectionKey)

	// takeReady deduplicates keys by stamping them with the batch
	// number; batch is the dispatch's key slice, reused across batches,
	// and dispatchFn the dispatch callback, built once.
	epoch      uint64
	batch      []*SelectionKey
	dispatchFn func()

	// Stats.
	events  uint64
	wakeups uint64
}

// NewSelector creates a selector on a device's node.
func NewSelector(dev *rdma.Device) *Selector {
	s := &Selector{
		dev:    dev,
		thread: sim.NewResource(dev.Node().Loop(), dev.Node().Name()+"/rubin", 1),
	}
	s.dispatchFn = s.dispatchBatch
	return s
}

// Device returns the RDMA device the selector serves.
func (s *Selector) Device() *rdma.Device { return s.dev }

// Thread returns the selector's single application thread resource; its
// busy time measures RUBIN's CPU overhead (useful for ablations).
func (s *Selector) Thread() *sim.Resource { return s.thread }

// Events returns the total number of events that traversed the hybrid
// event queue.
func (s *Selector) Events() uint64 { return s.events }

// Wakeups returns the number of dispatch batches delivered to the handler.
func (s *Selector) Wakeups() uint64 { return s.wakeups }

// Register attaches a channel with an interest set, returning its
// selection key (a "selectable channel" per the paper). Registering a
// Channel also arms its completion queues with the selector's event
// manager.
func (s *Selector) Register(ch Registrable, ops InterestOps, attachment any) *SelectionKey {
	s.nextKey++
	k := &SelectionKey{sel: s, ch: ch, id: s.nextKey, interest: ops, attachment: attachment}
	s.keys = append(s.keys, k)
	ch.bindKey(k)
	if c, ok := ch.(*Channel); ok {
		s.armChannel(c)
	}
	if r := ch.readiness() & ops; r != 0 {
		k.ready |= r
		s.push(event{key: k, ops: r})
	}
	return k
}

// armChannel moves the channel's RUBIN-level CPU work onto the selector's
// single thread; the channel itself already drains its completion queues.
func (s *Selector) armChannel(c *Channel) {
	c.sel = s
	c.sendCQ.SetWorkThread(s.thread)
	c.recvCQ.SetWorkThread(s.thread)
	if c.qp != nil {
		c.qp.SetWorkThread(s.thread)
	}
}

// push adds an event to the hybrid queue; the event manager then notifies
// a pending select (paper Figure 2, steps 4–5).
func (s *Selector) push(ev event) {
	if ev.key == nil || ev.key.canceled {
		return
	}
	s.hybridQ = append(s.hybridQ, ev)
	s.events++
	s.pump()
}

// Select installs the readiness handler (the select() invocation of paper
// Figure 2, step 3: it "blocks" until events arrive). The same contract
// as the NIO selector applies: the handler must consume or clear every
// ready+interesting bit or the dispatch loop spins, like any
// level-triggered event loop.
func (s *Selector) Select(handler func([]*SelectionKey)) {
	s.handler = handler
	s.pump()
}

// SelectNow drains currently ready keys without dispatch cost.
func (s *Selector) SelectNow() []*SelectionKey { return s.takeReady(nil) }

// takeReady drains the hybrid queue into dst[:0]; it returns nil when the
// queue held no ready key.
func (s *Selector) takeReady(dst []*SelectionKey) []*SelectionKey {
	if len(s.hybridQ) == 0 {
		return nil
	}
	// Match events to interested keys (ID comparison per the paper);
	// deduplicate to one entry per key preserving first-event order.
	s.epoch++
	keys := dst[:0]
	for _, ev := range s.hybridQ {
		k := ev.key
		if k.canceled || k.ready&k.interest == 0 || k.taken == s.epoch {
			continue
		}
		k.taken = s.epoch
		keys = append(keys, k)
	}
	clear(s.hybridQ)
	s.hybridQ = s.hybridQ[:0]
	if len(keys) == 0 {
		return nil
	}
	return keys
}

func (s *Selector) pump() {
	if s.handler == nil || s.dispatch || len(s.hybridQ) == 0 {
		return
	}
	s.dispatch = true
	// The event-manager notification plus key matching: RUBIN's
	// select() path, slower than the native epoll-backed NIO selector
	// (paper Section IV notes native code as future work).
	params := s.dev.Node().Network().Params()
	s.thread.Acquire(params.Selector.RubinDispatch, s.dispatchFn)
}

// dispatchBatch runs one scheduled dispatch over the queued events.
func (s *Selector) dispatchBatch() {
	s.dispatch = false
	keys := s.takeReady(s.batch)
	if len(keys) == 0 || s.handler == nil {
		return
	}
	s.batch = keys
	s.wakeups++
	s.handler(keys)
	for _, k := range keys {
		if !k.canceled && k.ready&k.interest != 0 {
			s.hybridQ = append(s.hybridQ, event{key: k, ops: k.ready & k.interest})
		}
	}
	s.pump()
}

// SelectionKey ties a channel to a selector; its unique ID characterizes
// the connection (paper Section III-B).
type SelectionKey struct {
	sel        *Selector
	ch         Registrable
	id         uint64
	interest   InterestOps
	ready      InterestOps
	attachment any
	canceled   bool
	taken      uint64 // the selector epoch that last dispatched this key
}

// ID returns the key's unique identifier.
func (k *SelectionKey) ID() uint64 { return k.id }

// Channel returns the registered channel (a *Channel or *ServerChannel).
func (k *SelectionKey) Channel() Registrable { return k.ch }

// Attachment returns the object attached at registration.
func (k *SelectionKey) Attachment() any { return k.attachment }

// Attach replaces the attachment.
func (k *SelectionKey) Attach(a any) { k.attachment = a }

// Interest returns the interest set.
func (k *SelectionKey) Interest() InterestOps { return k.interest }

// SetInterest replaces the interest set, re-evaluating readiness.
func (k *SelectionKey) SetInterest(ops InterestOps) {
	k.interest = ops
	if r := k.ch.readiness() & ops; r != 0 {
		k.ready |= r
		k.sel.push(event{key: k, ops: r})
	}
}

// Ready returns the ready set.
func (k *SelectionKey) Ready() InterestOps { return k.ready }

// ResetReady clears readiness bits once handled.
func (k *SelectionKey) ResetReady(ops InterestOps) { k.ready &^= ops }

// Cancel removes the key from the selector.
func (k *SelectionKey) Cancel() {
	if k.canceled {
		return
	}
	k.canceled = true
	for i, other := range k.sel.keys {
		if other == k {
			k.sel.keys = append(k.sel.keys[:i], k.sel.keys[i+1:]...)
			break
		}
	}
}

// markReady sets bits without queueing an event (the caller queues).
func (k *SelectionKey) markReady(ops InterestOps) { k.ready |= ops }

// signal sets bits and queues a hybrid event if the key is interested.
func (k *SelectionKey) signal(ops InterestOps) {
	if k == nil || k.canceled {
		return
	}
	k.ready |= ops
	if ops&k.interest != 0 {
		k.sel.push(event{key: k, ops: ops})
	}
}
