// Package transport is the replica communication stack: framed,
// message-oriented, batched connections with two interchangeable backends —
// the Java-NIO-style selector over simulated TCP (package nio) and RUBIN
// over simulated RDMA (package rubin).
//
// This is the integration point the paper describes: Reptor's protocol
// layer talks to exactly this interface, so swapping the NIO selector for
// RUBIN requires no protocol changes (Section III). Both backends coalesce
// up to Options.Batch messages per syscall or doorbell, matching the
// batching of the Figure 4 measurement.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/nio"
	"rubin/internal/tcpsim"
)

// Errors returned by transport operations.
var (
	ErrTooBig = errors.New("transport: message exceeds MaxMessage")
	ErrClosed = errors.New("transport: connection closed")
)

// Kind identifies a backend.
type Kind string

// Available backends.
const (
	KindTCP  Kind = "tcp-nio"
	KindRDMA Kind = "rdma-rubin"
)

// Options tunes a stack.
type Options struct {
	// Batch is how many queued messages are coalesced per syscall
	// (TCP) or doorbell (RDMA). The paper's Figure 4 uses 10.
	Batch int
	// MaxMessage caps a single message's size (and sizes the RDMA
	// receive buffers).
	MaxMessage int
	// WRs is the RDMA work-request pool depth per connection.
	WRs int
}

// DefaultOptions returns the configuration used by the Figure 4
// experiment.
func DefaultOptions() Options {
	return Options{Batch: 10, MaxMessage: 256 << 10, WRs: 64}
}

func (o Options) validate() error {
	if o.Batch < 1 || o.MaxMessage < 1 || o.WRs < 1 {
		return fmt.Errorf("transport: invalid options %+v", o)
	}
	return nil
}

// Conn is one framed, message-oriented connection.
type Conn interface {
	// Send queues one message for delivery. Messages arrive whole, in
	// order, exactly once (the simulated fabrics are reliable).
	Send(msg []byte) error
	// OnMessage installs the delivery callback. Must be set before
	// messages arrive; delivery without a callback queues internally.
	// The receive-buffer ownership contract: msg belongs to the receiver,
	// which may retain it indefinitely, since the transport never
	// reuses it; no layer modifies received bytes, so decoders may
	// alias them.
	OnMessage(fn func(msg []byte))
	// OnClose installs a callback for connection teardown.
	OnClose(fn func())
	// Unsent reports how many messages Send has accepted but the backend
	// has not yet handed to the wire (TCP: frames waiting for socket
	// space; RDMA: messages spilled past the work-request pool). Layers
	// above use it as the substrate backpressure signal.
	Unsent() int
	// OnDrain installs a callback fired whenever a previously backlogged
	// connection's unsent queue empties — the writability edge that pairs
	// with Unsent.
	OnDrain(fn func())
	// Peer returns the remote node.
	Peer() *fabric.Node
	// Close tears the connection down.
	Close()
	// Kind reports the backend.
	Kind() Kind
}

// Stack accepts and originates connections on one node.
type Stack interface {
	// Listen accepts inbound connections on a port.
	Listen(port int, accept func(Conn)) error
	// Dial connects to a port on a remote node.
	Dial(remote *fabric.Node, port int, done func(Conn, error))
	// Node returns the fabric node this stack runs on.
	Node() *fabric.Node
	// Kind reports the backend.
	Kind() Kind
}

// NewStack creates a stack of the requested kind on a node. TCP stacks
// require the node to have no other TCP stack; RDMA stacks open the
// node's RNIC.
func NewStack(kind Kind, node *fabric.Node, opts Options) (Stack, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	switch kind {
	case KindTCP:
		return newTCPStack(node, opts), nil
	case KindRDMA:
		return newRDMAStack(node, opts), nil
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", kind)
	}
}

// ---------------------------------------------------------------------------
// TCP / Java-NIO backend
// ---------------------------------------------------------------------------

type tcpStack struct {
	node *fabric.Node
	opts Options
	st   *tcpsim.Stack
	sel  *nio.Selector
}

func newTCPStack(node *fabric.Node, opts Options) *tcpStack {
	st := tcpsim.NewStack(node)
	s := &tcpStack{node: node, opts: opts, st: st, sel: nio.NewSelector(st)}
	s.sel.Select(s.dispatch)
	return s
}

func (s *tcpStack) Node() *fabric.Node { return s.node }
func (s *tcpStack) Kind() Kind         { return KindTCP }

func (s *tcpStack) Listen(port int, accept func(Conn)) error {
	ssc, err := nio.ListenSocket(s.st, port)
	if err != nil {
		return err
	}
	s.sel.Register(ssc, nio.OpAccept, accept)
	return nil
}

func (s *tcpStack) Dial(remote *fabric.Node, port int, done func(Conn, error)) {
	s.st.Dial(remote, port, func(c *tcpsim.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		tc := s.wrap(nio.WrapConn(c))
		done(tc, nil)
	})
}

// wrap builds the framed connection around an established socket channel
// and registers it for reads.
func (s *tcpStack) wrap(ch *nio.SocketChannel) *tcpConn {
	tc := &tcpConn{stack: s, conn: ch.Conn(), ch: ch}
	tc.key = s.sel.Register(ch, nio.OpRead, tc)
	return tc
}

// dispatch is the stack's single selector loop.
func (s *tcpStack) dispatch(keys []*nio.SelectionKey) {
	for _, k := range keys {
		switch ch := k.Channel().(type) {
		case *nio.ServerSocketChannel:
			if k.Ready()&nio.OpAccept != 0 {
				accept, _ := k.Attachment().(func(Conn))
				for {
					sc := ch.Accept()
					if sc == nil {
						break
					}
					tc := s.wrap(sc)
					if accept != nil {
						accept(tc)
					}
				}
			}
		case *nio.SocketChannel:
			tc, _ := k.Attachment().(*tcpConn)
			if tc == nil {
				k.ResetReady(k.Ready())
				continue
			}
			if k.Ready()&nio.OpRead != 0 {
				tc.drain()
			}
			if k.Ready()&nio.OpWrite != 0 {
				k.ResetReady(nio.OpWrite)
				k.SetInterest(nio.OpRead)
				tc.flush()
			}
		}
	}
}

// readChunk is the most one Read syscall moves out of the socket buffer.
const readChunk = 64 << 10

// tcpConn frames messages with a 4-byte big-endian length prefix and
// coalesces up to Batch messages per write syscall.
//
// Both directions work in place. Send frames each message straight into
// sendBuf; a flush hands the kernel a contiguous run of frames, which the
// kernel copies, so the buffer is reused once it has been written out.
// Reads land directly in acc, and each delivered message is the one copy
// the receiver owns (see Conn.OnMessage).
type tcpConn struct {
	stack   *tcpStack
	conn    *tcpsim.Conn
	ch      *nio.SocketChannel
	key     *nio.SelectionKey
	onMsg   func([]byte)
	onClose func()
	onDrain func()
	closed  bool

	// Reassembly state: acc[accOff:] holds received bytes not yet
	// deframed.
	acc    []byte
	accOff int
	inbox  [][]byte

	// Send side: sendBuf[sendOff:] holds the unsent bytes, split into
	// queue entries that end at the offsets sendEnds[sendHead:]. An entry
	// is one framed message, except that a short write merges the rest of
	// its batch into one entry, which later flushes count as one message.
	sendBuf    []byte
	sendOff    int
	sendEnds   []int
	sendHead   int
	flushArmed bool
	flushFn    func() // the armed flush, built once
}

var _ Conn = (*tcpConn)(nil)

func (c *tcpConn) Kind() Kind         { return KindTCP }
func (c *tcpConn) Peer() *fabric.Node { return c.conn.RemoteNode() }

func (c *tcpConn) OnMessage(fn func([]byte)) {
	c.onMsg = fn
	for len(c.inbox) > 0 && c.onMsg != nil {
		m := c.inbox[0]
		c.inbox = c.inbox[1:]
		c.onMsg(m)
	}
}

func (c *tcpConn) OnClose(fn func()) { c.onClose = fn }

func (c *tcpConn) OnDrain(fn func()) { c.onDrain = fn }

func (c *tcpConn) Unsent() int { return len(c.sendEnds) - c.sendHead }

func (c *tcpConn) Send(msg []byte) error {
	if c.closed {
		return ErrClosed
	}
	if len(msg) > c.stack.opts.MaxMessage {
		return fmt.Errorf("%w: %d", ErrTooBig, len(msg))
	}
	c.sendBuf = binary.BigEndian.AppendUint32(c.sendBuf, uint32(len(msg)))
	c.sendBuf = append(c.sendBuf, msg...)
	c.sendEnds = append(c.sendEnds, len(c.sendBuf))
	c.armFlush()
	return nil
}

// armFlush schedules one coalesced write at the end of the current event
// turn (the batching of the Figure 4 experiment).
func (c *tcpConn) armFlush() {
	if c.flushArmed || c.closed {
		return
	}
	c.flushArmed = true
	if c.flushFn == nil {
		c.flushFn = func() {
			c.flushArmed = false
			c.flush()
		}
	}
	c.conn.LocalNode().Loop().Post(c.flushFn)
}

func (c *tcpConn) flush() {
	wroteAny := false
	for c.Unsent() > 0 && !c.closed {
		last := c.sendHead + min(c.Unsent(), c.stack.opts.Batch) - 1
		end := c.sendEnds[last]
		wrote, err := c.conn.Write(c.sendBuf[c.sendOff:end])
		if err != nil {
			c.teardown()
			return
		}
		c.sendOff += wrote
		if c.sendOff < end {
			// Socket buffer full: the unwritten tail of the batch
			// stays queued as one entry; resume on OpWrite readiness.
			c.sendHead = last
			c.compactSend()
			if c.ch != nil {
				c.keyInterest(nio.OpRead | nio.OpWrite)
			}
			return
		}
		c.sendHead = last + 1
		wroteAny = true
	}
	c.compactSend()
	if wroteAny && c.Unsent() == 0 && !c.closed && c.onDrain != nil {
		c.onDrain()
	}
}

// compactSend reclaims send-queue space already written: all of it once
// the queue is empty, else the written prefix once it is at least half
// the buffer (so a long backlog costs amortized O(1) copying per byte).
func (c *tcpConn) compactSend() {
	if c.Unsent() == 0 {
		c.sendBuf, c.sendOff = c.sendBuf[:0], 0
		c.sendEnds, c.sendHead = c.sendEnds[:0], 0
		return
	}
	if c.sendOff < len(c.sendBuf)/2 {
		return
	}
	c.sendBuf = c.sendBuf[:copy(c.sendBuf, c.sendBuf[c.sendOff:])]
	c.sendEnds = c.sendEnds[:copy(c.sendEnds, c.sendEnds[c.sendHead:])]
	for i := range c.sendEnds {
		c.sendEnds[i] -= c.sendOff
	}
	c.sendOff, c.sendHead = 0, 0
}

func (c *tcpConn) keyInterest(ops nio.InterestOps) {
	// The transport registered the channel; adjust via its key through
	// the selector by re-registering interest on readiness changes.
	if c.key != nil {
		c.key.SetInterest(ops)
	}
}

// reserveRead makes room for one readChunk after acc's bytes, first by
// moving the undeframed tail to the front, then by growing the buffer.
func (c *tcpConn) reserveRead() {
	if cap(c.acc)-len(c.acc) >= readChunk {
		return
	}
	if c.accOff > 0 {
		c.acc = c.acc[:copy(c.acc, c.acc[c.accOff:])]
		c.accOff = 0
		if cap(c.acc)-len(c.acc) >= readChunk {
			return
		}
	}
	grown := make([]byte, len(c.acc), max(2*cap(c.acc), len(c.acc)+readChunk))
	copy(grown, c.acc)
	c.acc = grown
}

func (c *tcpConn) drain() {
	if c.closed {
		return
	}
	if c.ch.Closed() {
		c.teardown()
		return
	}
	for {
		c.reserveRead()
		n, err := c.ch.Read(c.acc[len(c.acc) : len(c.acc)+readChunk])
		if err != nil {
			c.teardown()
			return
		}
		if n == 0 {
			break
		}
		c.acc = c.acc[:len(c.acc)+n]
	}
	params := c.stack.node.Network().Params()
	for {
		buf := c.acc[c.accOff:]
		if len(buf) < 4 {
			break
		}
		size := binary.BigEndian.Uint32(buf)
		if uint64(size) > uint64(c.stack.opts.MaxMessage) {
			// No honest sender frames more than MaxMessage (Send
			// refuses it), so the prefix is corrupt or hostile.
			// Buffering toward it would grow acc without bound.
			c.Close()
			return
		}
		if len(buf) < 4+int(size) {
			break
		}
		msg := make([]byte, size)
		copy(msg, buf[4:])
		c.accOff += 4 + int(size)
		// Deframing plus handler dispatch costs real selector-thread
		// time per message.
		c.stack.st.AppThread().Delay(params.TCP.MsgHandle)
		if c.onMsg != nil {
			c.onMsg(msg)
		} else {
			c.inbox = append(c.inbox, msg)
		}
	}
	if c.accOff == len(c.acc) {
		c.acc, c.accOff = c.acc[:0], 0
	}
}

func (c *tcpConn) Close() {
	if c.closed {
		return
	}
	c.conn.Close()
	c.teardown()
}

func (c *tcpConn) teardown() {
	if c.closed {
		return
	}
	c.closed = true
	if c.key != nil {
		c.key.Cancel()
	}
	if c.onClose != nil {
		c.onClose()
	}
}
