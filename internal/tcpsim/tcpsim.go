// Package tcpsim simulates a kernel TCP/IP stack with the cost structure
// the paper attributes to it: per-call syscall crossings, user<->kernel
// buffer copies, per-MTU-segment protocol processing, interrupts, and
// scheduler wakeups — all charged to the host CPU resource. This is the
// baseline that RDMA's kernel bypass and zero copy eliminate.
//
// The API is non-blocking and event-driven (the simulator has no blocked
// goroutines): Read and Write transfer whatever is possible immediately and
// return short counts otherwise, and OnReadable/OnWritable callbacks signal
// readiness transitions. Package nio builds a Java-NIO-style selector on
// top of these callbacks.
//
// Delivery relies on the fabric's in-order per-direction links, so no
// retransmission logic is modeled; flow control (socket-buffer windows) is.
package tcpsim

import (
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// Errors returned by connection operations.
var (
	ErrClosed       = errors.New("tcpsim: connection closed")
	ErrPortInUse    = errors.New("tcpsim: port already in use")
	ErrNoListener   = errors.New("tcpsim: connection refused")
	ErrStackExists  = errors.New("tcpsim: node already has a TCP stack")
	headerWireBytes = 60 // control segment size on the wire
)

// Stack is the per-node TCP instance. Create one per fabric node.
type Stack struct {
	node      *fabric.Node
	params    model.Params
	listeners map[int]*Listener
	conns     map[connID]*Conn
	nextPort  int

	// app serializes application-side syscall work (Write/Read/Dial).
	// It models the single selector thread of the NIO architecture the
	// paper targets, and guarantees that a connection's writes enter the
	// send queue in call order. Kernel work (interrupts, segment
	// processing) runs on the node's multi-core CPU instead.
	app *sim.Resource

	// Interrupt coalescing: segments arriving while the receive softirq
	// is active are drained in the same batch without a fresh interrupt
	// charge. The softirq processes one segment at a time; rxCur is the
	// one on the CPU.
	rxQueue  sim.FIFO[rxSegment]
	rxCur    rxSegment
	rxActive bool

	// Callbacks built once (see sim.FIFO).
	drainRxFn, rxDoneFn func()

	// freeSegs recycles the segments this stack sent. The fabric hands
	// each segment to exactly one receiver, which returns it to its
	// sender's list once processed, so each list stays as long as its
	// stack's most segments in flight.
	freeSegs sim.FreeList[*segment]
}

// rxSegment is a received segment awaiting kernel processing.
type rxSegment struct {
	from *fabric.Node
	seg  *segment
}

type connID struct {
	peer       string
	localPort  int
	remotePort int
}

// segment is the unit carried over the fabric.
type segment struct {
	owner    *Stack // the sending stack, whose free list takes it back
	kind     segKind
	srcPort  int
	dstPort  int
	payload  []byte
	consumed int // windowUpdate: bytes the peer application consumed
}

type segKind uint8

const (
	segSYN segKind = iota + 1
	segSYNACK
	segRST
	segDATA
	segWINDOW
	segFIN
)

// NewStack creates the TCP stack on a node and registers it for ProtoTCP
// frames. A node can host at most one stack.
func NewStack(node *fabric.Node) *Stack {
	s := &Stack{
		node:      node,
		params:    node.Network().Params(),
		listeners: make(map[int]*Listener),
		conns:     make(map[connID]*Conn),
		nextPort:  49152,
		app:       sim.NewResource(node.Loop(), node.Name()+"/tcp-app", 1),
	}
	s.drainRxFn = s.drainRx
	s.rxDoneFn = s.rxDone
	node.Register(fabric.ProtoTCP, s.deliver)
	return s
}

// Node returns the fabric node this stack runs on.
func (s *Stack) Node() *fabric.Node { return s.node }

// AppThread returns the stack's single application/selector thread
// resource, where layers above the socket charge their per-message work.
func (s *Stack) AppThread() *sim.Resource { return s.app }

func (s *Stack) loop() *sim.Loop { return s.node.Loop() }

// Listen opens a listening port. onAccept runs for every established
// inbound connection.
func (s *Stack) Listen(port int, onAccept func(*Conn)) (*Listener, error) {
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{stack: s, port: port, onAccept: onAccept}
	s.listeners[port] = l
	return l, nil
}

// Dial opens a connection to port on the remote node. done is called once
// the three-way handshake completes (or fails).
func (s *Stack) Dial(remote *fabric.Node, port int, done func(*Conn, error)) {
	local := s.nextPort
	s.nextPort++
	c := s.newConn(remote, local, port)
	c.state = stateSYNSent
	c.onDialed = done
	s.conns[c.id()] = c
	// Connection setup costs one syscall plus the handshake round trip.
	s.app.Acquire(s.params.TCP.SendSyscall, func() {
		c.sendControl(segSYN)
	})
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack    *Stack
	port     int
	onAccept func(*Conn)
	closed   bool
}

// Port returns the listening port.
func (l *Listener) Port() int { return l.port }

// Close stops accepting new connections.
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		delete(l.stack.listeners, l.port)
	}
}

// sendBlock is one Write's kernel copy and the stream offset it ends at.
type sendBlock struct {
	buf []byte
	end int64
}

// maxSpare bounds a connection's recycled send blocks.
const maxSpare = 16

type connState uint8

const (
	stateSYNSent connState = iota + 1
	stateEstablished
	stateClosed
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack      *Stack
	remote     *fabric.Node
	localPort  int
	remotePort int
	state      connState

	onDialed   func(*Conn, error)
	onReadable func()
	onWritable func()
	onClose    func()

	// Send side: bytes accepted from the application but not yet
	// permitted onto the wire by the peer's advertised window.
	sendQ    sim.FIFO[[]byte]
	sendQLen int
	inFlight int // bytes on the wire not yet consumed by the peer app

	// Kernel send memory. Write copies into blocks that are recycled
	// once the peer application has consumed every byte of them: by
	// then each segment carrying those bytes has been delivered and
	// copied into the peer's receive buffer.
	blocks   sim.FIFO[sendBlock]  // written blocks, oldest first
	spare    sim.FreeList[[]byte] // recycled blocks
	accepted int64                // stream bytes accepted by Write
	consumed int64                // stream bytes the peer consumed

	// Receive side: the kernel socket buffer, recvBuf[recvOff:]. Reads
	// advance recvOff; the consumed prefix is reclaimed in place rather
	// than by reallocating (flow control bounds the buffer by
	// SocketBuffer, so it stops growing after warm-up).
	recvBuf    []byte
	recvOff    int
	notifyArm  bool // a readable wakeup is already scheduled
	writeBlock bool // application hit a zero window and awaits OnWritable

	// Syscalls whose CPU charge is still being served on the stack's
	// one-server app thread, which completes them in call order.
	writing sim.FIFO[[]byte] // Write: the bytes copied into the kernel
	reading sim.FIFO[int]    // Read: the bytes consumed

	// Callbacks built once (see sim.FIFO).
	writtenFn, readFn, wakeupFn func()
}

func (s *Stack) newConn(remote *fabric.Node, localPort, remotePort int) *Conn {
	c := &Conn{
		stack:      s,
		remote:     remote,
		localPort:  localPort,
		remotePort: remotePort,
	}
	c.writtenFn, c.readFn, c.wakeupFn = c.written, c.read, c.wakeup
	return c
}

func (c *Conn) id() connID {
	return connID{peer: c.remote.Name(), localPort: c.localPort, remotePort: c.remotePort}
}

// LocalNode returns the node this endpoint lives on.
func (c *Conn) LocalNode() *fabric.Node { return c.stack.node }

// RemoteNode returns the peer's node.
func (c *Conn) RemoteNode() *fabric.Node { return c.remote }

// LocalPort returns the local port number.
func (c *Conn) LocalPort() int { return c.localPort }

// RemotePort returns the peer's port number.
func (c *Conn) RemotePort() int { return c.remotePort }

// Established reports whether the connection is open for data transfer.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// OnReadable installs the callback invoked (after the modeled interrupt and
// wakeup latency) whenever the receive buffer transitions to non-empty.
func (c *Conn) OnReadable(fn func()) { c.onReadable = fn }

// OnWritable installs the callback invoked when send-buffer space frees up
// after a Write returned a short count.
func (c *Conn) OnWritable(fn func()) { c.onWritable = fn }

// OnClose installs the callback invoked when the peer closes or resets.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// Readable returns the number of bytes immediately available to Read.
func (c *Conn) Readable() int { return len(c.recvBuf) - c.recvOff }

// WritableSpace returns how many bytes Write would currently accept.
func (c *Conn) WritableSpace() int {
	space := c.stack.params.TCP.SocketBuffer - c.sendQLen - c.inFlight
	if space < 0 {
		return 0
	}
	return space
}

// Write queues up to len(p) bytes for transmission and returns how many
// were accepted (non-blocking). The syscall, user-to-kernel copy and
// per-segment processing costs are charged to the host CPU; bytes enter the
// wire once those costs have been served and the flow-control window
// permits.
func (c *Conn) Write(p []byte) (int, error) {
	if c.state != stateEstablished {
		return 0, ErrClosed
	}
	n := len(p)
	if space := c.WritableSpace(); n > space {
		n = space
	}
	if n == 0 {
		c.writeBlock = true
		return 0, nil
	}
	data := c.kernelBlock(n)
	copy(data, p)
	tp := c.stack.params.TCP
	cost := tp.SendSyscall + model.KB(tp.CopyPerKB, n) +
		tp.SegmentProc*sim.Time(c.stack.params.Link.Frames(n))
	c.sendQLen += n
	c.writing.Push(data)
	c.stack.app.Acquire(cost, c.writtenFn)
	return n, nil
}

// written completes the oldest Write once its syscall has been served.
func (c *Conn) written() {
	c.sendQ.Push(c.writing.Pop())
	c.pump()
}

// kernelBlock returns n bytes of kernel send memory: the newest spare
// block if it is large enough (a smaller one is dropped, so the spares
// follow the write sizes), else a fresh block rounded up to a power of
// two so that it fits later writes of similar size.
func (c *Conn) kernelBlock(n int) []byte {
	b, _ := c.spare.Get()
	if cap(b) >= n {
		b = b[:n]
	} else {
		size := 512
		for size < n {
			size <<= 1
		}
		b = make([]byte, n, size)
	}
	c.accepted += int64(n)
	c.blocks.Push(sendBlock{buf: b, end: c.accepted})
	return b
}

// reclaim recycles the send blocks the peer has consumed entirely.
func (c *Conn) reclaim(consumed int) {
	c.consumed += int64(consumed)
	for c.blocks.Len() > 0 && c.blocks.Peek().end <= c.consumed {
		b := c.blocks.Pop().buf
		if c.spare.Len() < maxSpare {
			c.spare.Put(b[:0])
		}
	}
}

// pump moves queued bytes onto the wire as MTU segments while the peer's
// advertised window has room.
func (c *Conn) pump() {
	if c.state != stateEstablished {
		return
	}
	mtu := c.stack.params.Link.MTU
	for c.sendQ.Len() > 0 {
		window := c.stack.params.TCP.SocketBuffer - c.inFlight
		if window <= 0 {
			return
		}
		head := *c.sendQ.Peek()
		n := len(head)
		if n > mtu {
			n = mtu
		}
		if n > window {
			n = window
		}
		chunk := head[:n]
		if n == len(head) {
			c.sendQ.Pop()
		} else {
			*c.sendQ.Peek() = head[n:]
		}
		c.sendQLen -= n
		c.inFlight += n
		seg := c.stack.newSegment(segDATA, c.localPort, c.remotePort)
		seg.payload = chunk
		c.send(seg, n)
	}
}

// Read copies up to len(p) bytes out of the receive buffer, returning the
// count (0 means would-block). The syscall and kernel-to-user copy are
// charged to the CPU; the window update advertising freed space is sent
// once that charge has been served.
func (c *Conn) Read(p []byte) (int, error) {
	if c.state == stateClosed && c.Readable() == 0 {
		return 0, ErrClosed
	}
	n := copy(p, c.recvBuf[c.recvOff:])
	if n == 0 {
		return 0, nil
	}
	c.recvOff += n
	if c.recvOff == len(c.recvBuf) {
		c.recvBuf, c.recvOff = c.recvBuf[:0], 0
	}
	tp := c.stack.params.TCP
	cost := tp.RecvSyscall + model.KB(tp.CopyPerKB, n)
	c.reading.Push(n)
	c.stack.app.Acquire(cost, c.readFn)
	return n, nil
}

// read completes the oldest Read once its syscall has been served.
func (c *Conn) read() {
	n := c.reading.Pop()
	if c.state == stateEstablished {
		seg := c.stack.newSegment(segWINDOW, c.localPort, c.remotePort)
		seg.consumed = n
		c.send(seg, 0)
	}
}

// Close shuts the connection down and notifies the peer.
func (c *Conn) Close() {
	if c.state == stateClosed {
		return
	}
	if c.state == stateEstablished {
		c.sendControl(segFIN)
	}
	c.teardown()
}

func (c *Conn) teardown() {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	delete(c.stack.conns, c.id())
	if c.onClose != nil {
		cb := c.onClose
		c.stack.loop().Post(cb)
	}
}

func (c *Conn) sendControl(kind segKind) {
	c.send(c.stack.newSegment(kind, c.localPort, c.remotePort), 0)
}

// newSegment takes a segment from the free list, or allocates one.
func (s *Stack) newSegment(kind segKind, src, dst int) *segment {
	seg, ok := s.freeSegs.Get()
	if !ok {
		seg = &segment{owner: s}
	}
	seg.kind, seg.srcPort, seg.dstPort = kind, src, dst
	return seg
}

func (c *Conn) send(seg *segment, payloadBytes int) {
	wire := payloadBytes
	if wire == 0 {
		wire = headerWireBytes
	}
	// Fabric errors (no link / no stack on peer) surface as a reset.
	if err := c.stack.node.Network().Send(c.stack.node, c.remote, fabric.ProtoTCP, seg, wire); err != nil {
		c.teardown()
	}
}

// deliver is the fabric handler: it models interrupt coalescing, then
// per-segment kernel processing, then hands data to connections.
func (s *Stack) deliver(from *fabric.Node, payload any, wireBytes int) {
	seg, ok := payload.(*segment)
	if !ok {
		return
	}
	s.rxQueue.Push(rxSegment{from: from, seg: seg})
	if s.rxActive {
		return
	}
	s.rxActive = true
	s.node.CPU.Acquire(s.params.TCP.Interrupt, s.drainRxFn)
}

func (s *Stack) drainRx() {
	if s.rxQueue.Len() == 0 {
		s.rxActive = false
		return
	}
	s.rxCur = s.rxQueue.Pop()
	s.node.CPU.Acquire(s.params.TCP.SegmentProc, s.rxDoneFn)
}

func (s *Stack) rxDone() {
	rx := s.rxCur
	s.rxCur = rxSegment{}
	s.handleSegment(rx.from, rx.seg)
	if owner := rx.seg.owner; owner != nil {
		*rx.seg = segment{owner: owner}
		owner.freeSegs.Put(rx.seg)
	}
	s.drainRx()
}

func (s *Stack) handleSegment(from *fabric.Node, seg *segment) {
	switch seg.kind {
	case segSYN:
		l := s.listeners[seg.dstPort]
		if l == nil || l.closed {
			reply := &segment{kind: segRST, srcPort: seg.dstPort, dstPort: seg.srcPort}
			_ = s.node.Network().Send(s.node, from, fabric.ProtoTCP, reply, headerWireBytes)
			return
		}
		c := s.newConn(from, seg.dstPort, seg.srcPort)
		c.state = stateEstablished
		s.conns[c.id()] = c
		c.sendControl(segSYNACK)
		if l.onAccept != nil {
			l.onAccept(c)
		}
	case segSYNACK:
		c := s.conns[connID{peer: from.Name(), localPort: seg.dstPort, remotePort: seg.srcPort}]
		if c == nil || c.state != stateSYNSent {
			return
		}
		c.state = stateEstablished
		if c.onDialed != nil {
			done := c.onDialed
			c.onDialed = nil
			done(c, nil)
		}
	case segRST:
		c := s.conns[connID{peer: from.Name(), localPort: seg.dstPort, remotePort: seg.srcPort}]
		if c == nil {
			return
		}
		if c.onDialed != nil {
			done := c.onDialed
			c.onDialed = nil
			delete(s.conns, c.id())
			c.state = stateClosed
			done(nil, ErrNoListener)
			return
		}
		c.teardown()
	case segDATA:
		c := s.conns[connID{peer: from.Name(), localPort: seg.dstPort, remotePort: seg.srcPort}]
		if c == nil || c.state != stateEstablished {
			return
		}
		if c.recvOff > 0 && cap(c.recvBuf)-len(c.recvBuf) < len(seg.payload) {
			c.recvBuf = c.recvBuf[:copy(c.recvBuf, c.recvBuf[c.recvOff:])]
			c.recvOff = 0
		}
		c.recvBuf = append(c.recvBuf, seg.payload...)
		c.notifyReadable()
	case segWINDOW:
		c := s.conns[connID{peer: from.Name(), localPort: seg.dstPort, remotePort: seg.srcPort}]
		if c == nil || c.state != stateEstablished {
			return
		}
		c.inFlight -= seg.consumed
		if c.inFlight < 0 {
			c.inFlight = 0
		}
		c.reclaim(seg.consumed)
		c.pump()
		if c.writeBlock && c.WritableSpace() > 0 && c.onWritable != nil {
			c.writeBlock = false
			c.onWritable()
		}
	case segFIN:
		c := s.conns[connID{peer: from.Name(), localPort: seg.dstPort, remotePort: seg.srcPort}]
		if c == nil {
			return
		}
		c.teardown()
	}
}

// notifyReadable schedules the application wakeup (at most one outstanding).
func (c *Conn) notifyReadable() {
	if c.onReadable == nil || c.notifyArm {
		return
	}
	c.notifyArm = true
	c.stack.node.CPU.Acquire(c.stack.params.TCP.Wakeup, c.wakeupFn)
}

func (c *Conn) wakeup() {
	c.notifyArm = false
	if c.onReadable != nil && c.Readable() > 0 {
		c.onReadable()
	}
}
