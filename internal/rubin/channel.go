package rubin

import (
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

// Errors returned by channel operations.
var (
	ErrMessageTooBig = errors.New("rubin: message exceeds channel buffer size")
	ErrWouldBlock    = errors.New("rubin: no send capacity, wait for OpSend")
	ErrChanClosed    = errors.New("rubin: channel closed")
)

// Config sizes a channel's RDMA resources. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// SendWRs and RecvWRs are the work-request pool depths.
	SendWRs int
	RecvWRs int
	// BufferSize is the size of each pooled buffer and therefore the
	// largest message the channel can carry.
	BufferSize int
	// SignalInterval requests a signaled send completion every Nth send
	// (selective signaling). 1 signals every send.
	SignalInterval int
	// PostBatch caps how many queued sends are posted per doorbell.
	PostBatch int
	// Inline sends payloads at or below the device inline limit inside
	// the work request itself.
	Inline bool
	// ZeroCopyReceive skips the CPU cost of the receive-side copy out of
	// the registered buffer (the paper's planned future optimization).
	// Only the charged time changes: Receive still returns the message's
	// own bytes.
	ZeroCopyReceive bool
}

// DefaultConfig returns the channel configuration used by the paper's
// evaluation: enough 128 KB buffers for the 1–100 KB payload sweep, with
// every Section IV optimization enabled per the model's parameter set.
func DefaultConfig(p model.Params) Config {
	return Config{
		SendWRs:         64,
		RecvWRs:         64,
		BufferSize:      128 << 10,
		SignalInterval:  p.Selector.SignalInterval,
		PostBatch:       p.Selector.PostBatch,
		Inline:          true,
		ZeroCopyReceive: p.Selector.ZeroCopyReceive,
	}
}

func (cfg Config) validate() error {
	if cfg.SendWRs < 1 || cfg.RecvWRs < 1 {
		return fmt.Errorf("rubin: WR pool depths must be positive (%d/%d)", cfg.SendWRs, cfg.RecvWRs)
	}
	if cfg.BufferSize < 1 {
		return fmt.Errorf("rubin: buffer size must be positive")
	}
	if cfg.SignalInterval < 1 {
		return fmt.Errorf("rubin: signal interval must be >= 1")
	}
	if cfg.PostBatch < 1 {
		return fmt.Errorf("rubin: post batch must be >= 1")
	}
	return nil
}

// Channel is an RDMA connection with NIO-socket-like non-blocking
// semantics. Create channels with Connect or accept them from a
// ServerChannel, then register with a Selector.
type Channel struct {
	id  uint64
	dev *rdma.Device
	cfg Config

	qp     *rdma.QP
	sendCQ *rdma.CQ
	recvCQ *rdma.CQ

	// Pre-registered buffer pools (paper Section IV): one region per
	// pool, partitioned into fixed-size slots.
	sendMR *rdma.MR
	recvMR *rdma.MR

	freeSend []int // free send slot indices

	// Selective signaling bookkeeping: sends are numbered; every
	// SignalInterval-th WR is signaled and its completion releases all
	// slots up to it.
	sendSeq    uint64
	inFlight   sim.FIFO[pendingSlot] // slots awaiting a covering signaled CQE
	pendingWRs []rdma.SendWR         // WRs awaiting the doorbell
	postBatch  []*rdma.SendWR        // Flush's PostSend argument, reused

	// freeInline recycles inline payload copies: a covering completion
	// proves the peer has landed the bytes, like a pool slot.
	freeInline sim.FreeList[[]byte]

	flushArmed bool
	wantSend   bool
	flushFn    func() // the armed doorbell, built once

	// Receive pipeline: CQEs queue here and are processed one at a time
	// on the owning thread so per-message copies cannot reorder. rxBatch
	// is the burst on the thread; the two slices swap to stay allocated.
	rxPending []rdma.CQE
	rxBatch   []rdma.CQE
	rxActive  bool
	rxDoneFn  func()

	// Received messages ready for Receive().
	inbox sim.FIFO[[]byte]

	key       *SelectionKey
	sel       *Selector
	ownThread *sim.Resource // app thread stand-in before registration
	connected bool
	closed    bool

	// Stats.
	sent, received uint64
	signaled       uint64
}

type pendingSlot struct {
	seq    uint64
	slot   int    // -1 for inline sends (no pool slot)
	inline []byte // an inline send's payload copy
}

// inlineMax is the largest payload sent inline (the QP's MaxInline).
const inlineMax = 256

func newChannel(dev *rdma.Device, cfg Config, id uint64) (*Channel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Channel{id: id, dev: dev, cfg: cfg}
	c.flushFn = func() {
		c.flushArmed = false
		c.Flush()
	}
	c.rxDoneFn = c.rxDone
	c.sendCQ = dev.CreateCQ(2*cfg.SendWRs + 8)
	c.recvCQ = dev.CreateCQ(2*cfg.RecvWRs + 8)
	c.freeSend = make([]int, 0, cfg.SendWRs)
	for i := 0; i < cfg.SendWRs; i++ {
		c.freeSend = append(c.freeSend, i)
	}
	return c, nil
}

// qpConfig builds the QP sizing for this channel.
func (c *Channel) qpConfig() rdma.QPConfig {
	return rdma.QPConfig{
		SendCQ:    c.sendCQ,
		RecvCQ:    c.recvCQ,
		MaxSendWR: c.cfg.SendWRs,
		MaxRecvWR: c.cfg.RecvWRs,
		MaxInline: inlineMax,
	}
}

// finishSetup registers buffer pools and posts the initial receive WRs;
// called once the QP exists (after CM handshake on either side).
func (c *Channel) finishSetup(qp *rdma.QP) error {
	c.qp = qp
	if c.sel != nil {
		qp.SetWorkThread(c.sel.thread)
	}
	pd := c.dev.AllocPD()
	// Pool registration happens once at connection setup — the cost is
	// deliberately front-loaded (paper: buffer pools are pre-registered
	// and reused as needed).
	c.sendMR = pd.RegisterMR(c.cfg.SendWRs*c.cfg.BufferSize, rdma.AccessLocalWrite, nil)
	c.recvMR = pd.RegisterMR(c.cfg.RecvWRs*c.cfg.BufferSize, rdma.AccessLocalWrite, nil)
	for i := 0; i < c.cfg.RecvWRs; i++ {
		wr := rdma.RecvWR{ID: uint64(i), MR: c.recvMR, Offset: i * c.cfg.BufferSize, Length: c.cfg.BufferSize}
		if err := qp.PostRecv(wr); err != nil {
			return fmt.Errorf("rubin: initial PostRecv: %w", err)
		}
	}
	// The channel drains its own completion queues; the selector (if
	// registered) only contributes the event dispatch and the thread the
	// work runs on. RUBIN's event manager reads completion events much
	// more cheaply than the default per-event channel path (the heavy
	// application wakeup is the selector dispatch, charged separately).
	c.sendCQ.SetEventCost(2 * sim.Microsecond)
	c.recvCQ.SetEventCost(2 * sim.Microsecond)
	c.sendCQ.OnEvent(c.drainSendCQ)
	c.sendCQ.RequestNotify()
	c.recvCQ.OnEvent(c.drainRecvCQ)
	c.recvCQ.RequestNotify()
	c.connected = true
	return nil
}

// thread returns the single application thread this channel's RUBIN-level
// CPU work runs on: the selector's thread once registered, or a lazily
// created stand-in for bare channels.
func (c *Channel) thread() *sim.Resource {
	if c.sel != nil {
		return c.sel.thread
	}
	if c.ownThread == nil {
		c.ownThread = sim.NewResource(c.dev.Node().Loop(), c.dev.Node().Name()+"/rubin-chan", 1)
	}
	return c.ownThread
}

// drainSendCQ retires signaled send completions, releasing buffer slots.
func (c *Channel) drainSendCQ() {
	for {
		cqes := c.sendCQ.Poll(16)
		if cqes == nil {
			break
		}
		for _, cqe := range cqes {
			c.onSendCompletion(cqe)
		}
	}
	c.sendCQ.RequestNotify()
}

// drainRecvCQ queues receive completions into the serialized receive
// pipeline.
func (c *Channel) drainRecvCQ() {
	for {
		cqes := c.recvCQ.Poll(16)
		if cqes == nil {
			break
		}
		c.rxPending = append(c.rxPending, cqes...)
	}
	c.recvCQ.RequestNotify()
	c.pumpRx()
}

// pumpRx processes queued receive completions in bursts: one thread
// acquisition covers the whole burst's copy cost and one selector event is
// pushed per burst, so heavy traffic amortizes the event machinery the
// same way a real selector loop does.
func (c *Channel) pumpRx() {
	if c.rxActive || len(c.rxPending) == 0 || c.closed {
		return
	}
	c.rxActive = true
	c.rxBatch, c.rxPending = c.rxPending, c.rxBatch[:0]

	p := c.dev.Node().Network().Params()
	var copyCost sim.Time
	if !c.cfg.ZeroCopyReceive {
		for _, cqe := range c.rxBatch {
			if cqe.Status == rdma.StatusOK {
				copyCost += model.KB(p.Selector.CopyPerKB, cqe.Bytes)
			}
		}
	}
	c.thread().Acquire(copyCost, c.rxDoneFn)
}

// rxDone lands the burst whose copy cost the thread has served.
func (c *Channel) rxDone() {
	delivered := 0
	for _, cqe := range c.rxBatch {
		if c.closed {
			break
		}
		if c.finishRecvCQE(cqe) {
			delivered++
		}
	}
	c.rxActive = false
	if delivered > 0 && c.key != nil && c.sel != nil {
		c.key.markReady(OpReceive)
		c.sel.push(event{key: c.key, ops: OpReceive})
	}
	c.pumpRx()
}

// finishRecvCQE lands one received message (copy already charged by
// pumpRx) and re-posts its buffer; reports whether a message was queued.
// The copy out of the receive region is the message's one copy on this
// side, and the receiver owns it (transport.Conn.OnMessage).
func (c *Channel) finishRecvCQE(cqe rdma.CQE) bool {
	if cqe.Status != rdma.StatusOK {
		c.fail()
		return false
	}
	slot := int(cqe.WRID)
	off := slot * c.cfg.BufferSize
	c.inbox.Push(c.recvMR.ReadBytes(off, cqe.Bytes))
	c.received++
	wr := rdma.RecvWR{ID: cqe.WRID, MR: c.recvMR, Offset: off, Length: c.cfg.BufferSize}
	if err := c.qp.PostRecv(wr); err != nil {
		c.fail()
		return false
	}
	return true
}

// ID returns the channel's unique connection identifier (paper III-B).
func (c *Channel) ID() uint64 { return c.id }

// Peer returns the remote node once connected, else nil.
func (c *Channel) Peer() *fabric.Node {
	if c.qp == nil {
		return nil
	}
	return c.qp.RemoteNode()
}

// Connected reports whether the channel is usable for data transfer.
func (c *Channel) Connected() bool { return c.connected && !c.closed }

// Sent returns the number of messages sent.
func (c *Channel) Sent() uint64 { return c.sent }

// Received returns the number of messages received.
func (c *Channel) Received() uint64 { return c.received }

// SignaledCompletions returns how many send completions were actually
// signaled — with selective signaling this is ~Sent/SignalInterval.
func (c *Channel) SignaledCompletions() uint64 { return c.signaled }

// SendCapacity returns how many more messages can be queued right now
// (bounded by the work-request queue depth; non-inline messages
// additionally need a free pool buffer).
func (c *Channel) SendCapacity() int {
	return c.cfg.SendWRs - c.inFlight.Len()
}

// Pending returns the number of received messages waiting in the inbox.
func (c *Channel) Pending() int { return c.inbox.Len() }

// Send queues one message (non-blocking). It returns ErrWouldBlock when
// the send pool is exhausted; register for OpSend to learn when capacity
// returns. Messages from consecutive Send calls within one selector turn
// are posted with a single doorbell (batched posting).
func (c *Channel) Send(msg []byte) error {
	if c.closed || !c.connected {
		return ErrChanClosed
	}
	if len(msg) > c.cfg.BufferSize {
		return fmt.Errorf("%w: %d > %d", ErrMessageTooBig, len(msg), c.cfg.BufferSize)
	}
	if c.SendCapacity() <= 0 {
		c.wantSend = true
		return ErrWouldBlock
	}
	// Zero-length messages ride a pool slot (a WR must carry either
	// inline bytes or a region reference).
	inline := c.cfg.Inline && len(msg) > 0 && len(msg) <= inlineMax
	if !inline && len(c.freeSend) == 0 {
		c.wantSend = true
		return ErrWouldBlock
	}
	c.sendSeq++
	seq := c.sendSeq
	// Selective signaling, with a forced signal when resources run low so
	// slot reclamation cannot stall behind an idle interval.
	signaled := seq%uint64(c.cfg.SignalInterval) == 0 ||
		c.SendCapacity() <= 2 || (!inline && len(c.freeSend) <= 1)

	wr := rdma.SendWR{ID: seq, Op: rdma.OpSend, Signaled: signaled}
	slot := -1
	if inline {
		// The doorbell carries a copy: the caller may reuse msg once
		// Send returns.
		wr.Inline = append(c.inlineBuf(), msg...)
	} else {
		slot = c.freeSend[len(c.freeSend)-1]
		c.freeSend = c.freeSend[:len(c.freeSend)-1]
		off := slot * c.cfg.BufferSize
		// Zero-copy send: the pool region is registered, so staging
		// the application bytes costs no modeled CPU copy (Section IV:
		// the application's send buffer is registered directly).
		c.sendMR.WriteAt(msg, off)
		wr.MR = c.sendMR
		wr.Offset = off
		wr.Length = len(msg)
	}
	c.inFlight.Push(pendingSlot{seq: seq, slot: slot, inline: wr.Inline})
	c.pendingWRs = append(c.pendingWRs, wr)
	c.armFlush()
	return nil
}

// inlineBuf returns an empty buffer with room for an inline payload.
func (c *Channel) inlineBuf() []byte {
	if b, ok := c.freeInline.Get(); ok {
		return b
	}
	return make([]byte, 0, inlineMax)
}

// armFlush schedules a doorbell at the end of the current event turn so
// that consecutive sends share one posting batch.
func (c *Channel) armFlush() {
	if c.flushArmed {
		return
	}
	c.flushArmed = true
	c.dev.Node().Loop().Post(c.flushFn)
}

// Flush posts all queued sends immediately, PostBatch WRs per doorbell.
func (c *Channel) Flush() {
	posted := 0
	for posted < len(c.pendingWRs) && !c.closed {
		n := min(len(c.pendingWRs)-posted, c.cfg.PostBatch)
		batch := c.postBatch[:0]
		for i := range c.pendingWRs[posted : posted+n] {
			batch = append(batch, &c.pendingWRs[posted+i])
		}
		c.postBatch = batch
		posted += n
		// PostSend copies the WRs, so their slots are free again.
		if err := c.qp.PostSend(batch...); err != nil {
			c.fail()
			break
		}
		c.sent += uint64(n)
	}
	clear(c.postBatch)
	clear(c.pendingWRs[:posted])
	c.pendingWRs = c.pendingWRs[:copy(c.pendingWRs, c.pendingWRs[posted:])]
}

// Receive pops the next received message. ok is false when the inbox is
// empty; the selector reports OpReceive readiness while messages wait.
func (c *Channel) Receive() ([]byte, bool) {
	if c.inbox.Len() == 0 {
		if c.key != nil {
			c.key.ResetReady(OpReceive)
		}
		return nil, false
	}
	msg := c.inbox.Pop()
	if c.inbox.Len() == 0 && c.key != nil {
		c.key.ResetReady(OpReceive)
	}
	return msg, true
}

// Close tears the channel down locally and cancels its selection key.
func (c *Channel) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.connected = false
	if c.key != nil {
		c.key.Cancel()
	}
}

// Closed reports whether Close was called or the QP failed.
func (c *Channel) Closed() bool { return c.closed }

func (c *Channel) fail() {
	c.closed = true
	c.connected = false
	if c.key != nil {
		c.key.signal(OpReceive) // surface the failure to the event loop
	}
}

// onSendCompletion processes signaled send CQEs: a completion with
// sequence number s releases every pool slot with seq <= s (selective
// signaling reclaims in batches).
func (c *Channel) onSendCompletion(cqe rdma.CQE) {
	if cqe.Status != rdma.StatusOK {
		c.fail()
		return
	}
	c.signaled++
	released := 0
	for c.inFlight.Len() > 0 && c.inFlight.Peek().seq <= cqe.WRID {
		ps := c.inFlight.Pop()
		if ps.slot >= 0 {
			c.freeSend = append(c.freeSend, ps.slot)
		}
		if ps.inline != nil {
			c.freeInline.Put(ps.inline[:0])
		}
		released++
	}
	if released > 0 && c.wantSend {
		c.wantSend = false
		if c.key != nil {
			c.key.signal(OpSend)
		}
	}
}
