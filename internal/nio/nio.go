// Package nio recreates the Java NIO selector/channel abstraction over the
// simulated TCP stack. It is the baseline RUBIN is measured against in the
// paper's Figure 4: BFT frameworks (BFT-SMaRt, UpRight, Reptor) multiplex
// all replica connections onto a single thread with exactly this interface,
// which is why RUBIN mimics it.
//
// The selector is event-driven rather than blocking: Select(handler)
// registers a callback that runs (once per readiness batch, after the
// modeled epoll dispatch cost) whenever registered channels become ready.
package nio

import (
	"errors"

	"rubin/internal/fabric"
	"rubin/internal/tcpsim"
)

// InterestOps is the bitmask of I/O events a selection key watches,
// mirroring java.nio.channels.SelectionKey.
type InterestOps uint8

// Interest/readiness bits.
const (
	OpAccept InterestOps = 1 << iota
	OpConnect
	OpRead
	OpWrite
)

// ErrCanceled is returned when operating on a canceled key.
var ErrCanceled = errors.New("nio: selection key canceled")

// Channel is anything registrable with a Selector.
type Channel interface {
	bind(k *SelectionKey)
	readiness() InterestOps
}

// Selector multiplexes readiness events from many channels onto a single
// application thread.
type Selector struct {
	stack    *tcpsim.Stack
	keys     []*SelectionKey
	handler  func([]*SelectionKey)
	nready   int  // keys with selected set
	dispatch bool // a dispatch is already scheduled

	// batch is the dispatch's ready-key slice, reused across batches;
	// dispatchFn is the dispatch callback, built once.
	batch      []*SelectionKey
	dispatchFn func()

	wakeups uint64
}

// NewSelector creates a selector bound to a node's TCP stack.
func NewSelector(stack *tcpsim.Stack) *Selector {
	s := &Selector{stack: stack}
	s.dispatchFn = s.dispatchBatch
	return s
}

// Stack returns the underlying TCP stack.
func (s *Selector) Stack() *tcpsim.Stack { return s.stack }

// Wakeups returns the number of dispatch batches delivered (a measure of
// how well readiness events coalesce).
func (s *Selector) Wakeups() uint64 { return s.wakeups }

// Register attaches a channel to the selector with the given interest set
// and optional attachment, returning its selection key.
func (s *Selector) Register(ch Channel, ops InterestOps, attachment any) *SelectionKey {
	k := &SelectionKey{sel: s, ch: ch, interest: ops, attachment: attachment}
	s.keys = append(s.keys, k)
	ch.bind(k)
	// Channels may already be ready at registration time (e.g. a
	// writable socket registered for OpWrite).
	if r := ch.readiness() & ops; r != 0 {
		k.ready |= r
		s.enqueue(k)
	}
	return k
}

// Select installs the readiness handler. The handler runs once per
// readiness batch with the set of ready keys; readiness bits persist until
// consumed (read drained, write performed, accept taken), Java-style.
//
// Contract: like a level-triggered epoll loop, the handler MUST consume or
// explicitly clear (ResetReady / SetInterest) every readiness bit it is
// interested in — a bit left both ready and interesting re-dispatches
// immediately and the selector will spin, exactly as a real NIO event loop
// would.
func (s *Selector) Select(handler func(keys []*SelectionKey)) {
	s.handler = handler
	s.pump()
}

// SelectNow returns the currently ready keys without waiting and clears
// the pending set.
func (s *Selector) SelectNow() []*SelectionKey {
	return s.takeReady(nil)
}

// takeReady appends the selected keys to dst[:0] in registration order
// (deterministic) and clears the selected set. It returns nil when no
// key is selected.
func (s *Selector) takeReady(dst []*SelectionKey) []*SelectionKey {
	if s.nready == 0 {
		return nil
	}
	keys := dst[:0]
	for _, k := range s.keys {
		if k.selected {
			k.selected = false
			keys = append(keys, k)
		}
	}
	s.nready = 0
	return keys
}

// selectKey adds a key to the selected set.
func (s *Selector) selectKey(k *SelectionKey) {
	if !k.selected {
		k.selected = true
		s.nready++
	}
}

// enqueue marks a key ready and schedules a dispatch batch.
func (s *Selector) enqueue(k *SelectionKey) {
	if k.canceled {
		return
	}
	s.selectKey(k)
	s.pump()
}

func (s *Selector) pump() {
	if s.handler == nil || s.dispatch || s.nready == 0 {
		return
	}
	s.dispatch = true
	// The epoll_wait return + key scan cost of the Java selector.
	params := s.stack.Node().Network().Params()
	s.stack.Node().CPU.Acquire(params.Selector.NIODispatch, s.dispatchFn)
}

// dispatchBatch runs one scheduled dispatch: the handler sees every key
// selected since the last batch.
func (s *Selector) dispatchBatch() {
	s.dispatch = false
	keys := s.takeReady(s.batch)
	if len(keys) == 0 || s.handler == nil {
		return
	}
	s.batch = keys
	s.wakeups++
	s.handler(keys)
	// Keys whose readiness was not consumed re-enter the set.
	for _, k := range keys {
		if !k.canceled && k.ready&k.interest != 0 {
			s.selectKey(k)
		}
	}
	s.pump()
}

// SelectionKey ties a channel to a selector with an interest set.
type SelectionKey struct {
	sel        *Selector
	ch         Channel
	interest   InterestOps
	ready      InterestOps
	attachment any
	canceled   bool
	selected   bool // in the selector's set for the next dispatch
}

// Channel returns the registered channel.
func (k *SelectionKey) Channel() Channel { return k.ch }

// Attachment returns the object attached at registration.
func (k *SelectionKey) Attachment() any { return k.attachment }

// Attach replaces the attachment.
func (k *SelectionKey) Attach(a any) { k.attachment = a }

// Interest returns the current interest set.
func (k *SelectionKey) Interest() InterestOps { return k.interest }

// SetInterest replaces the interest set, re-evaluating readiness.
func (k *SelectionKey) SetInterest(ops InterestOps) {
	k.interest = ops
	if r := k.ch.readiness() & ops; r != 0 {
		k.ready |= r
		k.sel.enqueue(k)
	}
}

// Ready returns the bits currently ready on this key.
func (k *SelectionKey) Ready() InterestOps { return k.ready }

// ResetReady clears readiness bits after the application has handled them.
func (k *SelectionKey) ResetReady(ops InterestOps) { k.ready &^= ops }

// Cancel removes the key from its selector.
func (k *SelectionKey) Cancel() {
	if k.canceled {
		return
	}
	k.canceled = true
	if k.selected {
		k.selected = false
		k.sel.nready--
	}
	for i, other := range k.sel.keys {
		if other == k {
			k.sel.keys = append(k.sel.keys[:i], k.sel.keys[i+1:]...)
			break
		}
	}
}

// signal is called by channels when an event makes bits ready.
func (k *SelectionKey) signal(ops InterestOps) {
	if k == nil || k.canceled {
		return
	}
	if r := ops & k.interest; r != 0 {
		k.ready |= r
		k.sel.enqueue(k)
	}
}

// ServerSocketChannel accepts inbound connections, queueing them until the
// application calls Accept.
type ServerSocketChannel struct {
	stack    *tcpsim.Stack
	listener *tcpsim.Listener
	backlog  []*tcpsim.Conn
	key      *SelectionKey
}

// ListenSocket opens a listening server socket channel on the stack.
func ListenSocket(stack *tcpsim.Stack, port int) (*ServerSocketChannel, error) {
	ssc := &ServerSocketChannel{stack: stack}
	l, err := stack.Listen(port, func(c *tcpsim.Conn) {
		ssc.backlog = append(ssc.backlog, c)
		ssc.key.signal(OpAccept)
	})
	if err != nil {
		return nil, err
	}
	ssc.listener = l
	return ssc, nil
}

func (ssc *ServerSocketChannel) bind(k *SelectionKey) { ssc.key = k }

func (ssc *ServerSocketChannel) readiness() InterestOps {
	if len(ssc.backlog) > 0 {
		return OpAccept
	}
	return 0
}

// Accept dequeues one established inbound connection as a SocketChannel,
// or nil if none is pending.
func (ssc *ServerSocketChannel) Accept() *SocketChannel {
	if len(ssc.backlog) == 0 {
		if ssc.key != nil {
			ssc.key.ResetReady(OpAccept)
		}
		return nil
	}
	conn := ssc.backlog[0]
	ssc.backlog = ssc.backlog[1:]
	if len(ssc.backlog) == 0 && ssc.key != nil {
		ssc.key.ResetReady(OpAccept)
	}
	return newSocketChannel(conn)
}

// Close stops listening.
func (ssc *ServerSocketChannel) Close() {
	ssc.listener.Close()
	if ssc.key != nil {
		ssc.key.Cancel()
	}
}

// SocketChannel is a non-blocking byte-stream channel over one TCP
// connection.
type SocketChannel struct {
	conn      *tcpsim.Conn
	connStack *tcpsim.Stack // set on OpenSocket channels until connected
	key       *SelectionKey
	connected bool
	pendConn  bool // connect() issued, not yet finished
	closed    bool
}

func newSocketChannel(conn *tcpsim.Conn) *SocketChannel {
	sc := &SocketChannel{conn: conn, connected: true}
	sc.hook()
	return sc
}

// OpenSocket creates an unconnected socket channel on a stack; call
// Connect and register for OpConnect to complete it.
func OpenSocket(stack *tcpsim.Stack) *SocketChannel {
	return &SocketChannel{connStack: stack}
}

// WrapConn adapts an already-established TCP connection (e.g. from a bare
// Dial callback) into a socket channel.
func WrapConn(conn *tcpsim.Conn) *SocketChannel {
	return newSocketChannel(conn)
}

func (sc *SocketChannel) hook() {
	sc.conn.OnReadable(func() { sc.key.signal(OpRead) })
	sc.conn.OnWritable(func() { sc.key.signal(OpWrite) })
	sc.conn.OnClose(func() {
		sc.closed = true
		// A closed peer manifests as readability (read returns error).
		sc.key.signal(OpRead)
	})
}

// Connect initiates a non-blocking connect to port on the remote node.
// Completion is signaled as OpConnect readiness; call FinishConnect there.
func (sc *SocketChannel) Connect(remote *fabric.Node, port int) {
	if sc.pendConn || sc.connected {
		return
	}
	sc.pendConn = true
	sc.connStack.Dial(remote, port, func(c *tcpsim.Conn, err error) {
		sc.pendConn = false
		if err != nil {
			sc.closed = true
			sc.key.signal(OpConnect)
			return
		}
		sc.conn = c
		sc.connected = true
		sc.hook()
		sc.key.signal(OpConnect)
	})
}

// FinishConnect reports whether the channel is now connected; false after
// a failed connect.
func (sc *SocketChannel) FinishConnect() bool {
	if sc.key != nil {
		sc.key.ResetReady(OpConnect)
	}
	return sc.connected
}

func (sc *SocketChannel) bind(k *SelectionKey) { sc.key = k }

func (sc *SocketChannel) readiness() InterestOps {
	var r InterestOps
	if sc.conn != nil {
		if sc.conn.Readable() > 0 {
			r |= OpRead
		}
		if sc.conn.WritableSpace() > 0 {
			r |= OpWrite
		}
	}
	if sc.closed {
		r |= OpRead
	}
	return r
}

// Read copies available bytes into p (0 means would-block). Draining the
// buffer clears OpRead readiness.
func (sc *SocketChannel) Read(p []byte) (int, error) {
	if sc.conn == nil {
		return 0, tcpsim.ErrClosed
	}
	n, err := sc.conn.Read(p)
	if sc.conn.Readable() == 0 && sc.key != nil && !sc.closed {
		sc.key.ResetReady(OpRead)
	}
	return n, err
}

// Write queues bytes for transmission, returning the accepted count.
func (sc *SocketChannel) Write(p []byte) (int, error) {
	if sc.conn == nil {
		return 0, tcpsim.ErrClosed
	}
	return sc.conn.Write(p)
}

// Readable returns the bytes immediately available.
func (sc *SocketChannel) Readable() int {
	if sc.conn == nil {
		return 0
	}
	return sc.conn.Readable()
}

// Conn exposes the underlying simulated TCP connection.
func (sc *SocketChannel) Conn() *tcpsim.Conn { return sc.conn }

// Closed reports whether the channel has been closed (locally or by peer).
func (sc *SocketChannel) Closed() bool { return sc.closed }

// Close closes the channel and cancels its key.
func (sc *SocketChannel) Close() {
	sc.closed = true
	if sc.conn != nil {
		sc.conn.Close()
	}
	if sc.key != nil {
		sc.key.Cancel()
	}
}
