package rdma

import (
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// QPState is the lifecycle state of a queue pair.
type QPState uint8

// Queue pair states (simplified RC state machine).
const (
	QPInit QPState = iota + 1
	QPReady
	QPError
)

func (s QPState) String() string {
	switch s {
	case QPInit:
		return "INIT"
	case QPReady:
		return "RTS"
	case QPError:
		return "ERROR"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// QPConfig sizes a queue pair at creation time.
type QPConfig struct {
	SendCQ    *CQ
	RecvCQ    *CQ
	MaxSendWR int // send queue depth
	MaxRecvWR int // receive queue depth
	MaxInline int // largest inline payload accepted by PostSend
}

// SendWR is a send-side work request: a two-sided SEND or a one-sided
// WRITE/READ.
type SendWR struct {
	ID uint64
	Op Opcode

	// Local buffer: either a registered-region slice...
	MR     *MR
	Offset int
	Length int
	// ...or inline payload carried in the WR itself (SEND/WRITE only,
	// subject to MaxInline); inline sends skip the NIC's DMA read.
	Inline []byte

	// Remote target for one-sided WRITE/READ.
	RemoteKey    uint32
	RemoteOffset int

	// Signaled requests a CQE on success. Errors always generate CQEs.
	Signaled bool
}

// RecvWR is a posted receive buffer for two-sided SENDs.
type RecvWR struct {
	ID     uint64
	MR     *MR
	Offset int
	Length int
}

// QP is a reliable-connection queue pair.
type QP struct {
	dev   *Device
	pd    *PD
	num   uint32
	state QPState
	cfg   QPConfig

	remoteNode *fabric.Node // set on connect
	remoteQPN  uint32

	// Send pipeline: WRs are processed by the NIC strictly in order per
	// QP (RC ordering); outstanding counts WRs posted but not yet acked.
	// PostSend copies each WR, so the poster may reuse its WR structs.
	// txWR and txPayload are the WR on the NIC engine (one at a time).
	sendQ       sim.FIFO[SendWR]
	txActive    bool
	txWR        SendWR
	txPayload   []byte
	txPooled    bool
	outstanding int

	// Receive queue of posted buffers, consumed FIFO by arriving SENDs.
	recvQ sim.FIFO[RecvWR]

	// Receive pipeline serialization (per-QP in-order delivery); rxCur
	// is the message on the NIC engine.
	rxQ      sim.FIFO[*wireMsg]
	rxActive bool
	rxCur    *wireMsg

	// Pipeline callbacks, built once.
	pumpSendFn, txDoneFn, rxDoneFn func()

	// Pending one-sided READ WRs awaiting responses, by WR ID.
	pendingReads map[uint64]*SendWR

	// Reliability: every data-path message carries a packet sequence
	// number; pending holds unacknowledged sends for RNR retransmission.
	// rxExpected enforces strict RC ordering at the responder: packets
	// beyond the expected PSN are NAKed for retry, duplicates below it
	// are re-acked and dropped, so acks (and thus selective-signaling
	// coverage) can never complete out of order.
	nextPSN    uint64
	rxExpected uint64
	pending    map[uint64]*txEntry
	freeTx     sim.FreeList[*txEntry] // acknowledged entries

	// thread is where posting (doorbell) CPU costs are charged;
	// defaults to the node CPU.
	thread *sim.Resource

	// Stats.
	sent, received uint64
}

// txEntry is an unacknowledged transmitted WR kept for RNR retry; it
// holds the wire message itself, so one allocation covers both. pooled
// marks a payload copied out of a registered region into the device's
// buffer pool, which the ack returns it to.
type txEntry struct {
	msg     wireMsg
	wire    int
	op      Opcode
	retries int
	pooled  bool
}

// CreateQP creates a queue pair in the Init state. Connect it via the
// connection manager (Listen/Connect) before posting.
func (d *Device) CreateQP(pd *PD, cfg QPConfig) (*QP, error) {
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("rdma: QP needs send and recv CQs")
	}
	if cfg.MaxSendWR < 1 || cfg.MaxRecvWR < 1 {
		return nil, fmt.Errorf("rdma: QP queue depths must be positive")
	}
	if cfg.MaxInline > d.params.RDMA.InlineMax {
		cfg.MaxInline = d.params.RDMA.InlineMax
	}
	qp := &QP{
		dev:          d,
		pd:           pd,
		num:          d.nextQPN,
		state:        QPInit,
		cfg:          cfg,
		pendingReads: make(map[uint64]*SendWR),
		pending:      make(map[uint64]*txEntry),
	}
	qp.pumpSendFn, qp.txDoneFn, qp.rxDoneFn = qp.pumpSend, qp.txDone, qp.rxDone
	d.nextQPN++
	d.qps[qp.num] = qp
	return qp, nil
}

// SetWorkThread redirects posting costs to the given resource, typically
// the single application/selector thread that owns this QP.
func (qp *QP) SetWorkThread(r *sim.Resource) { qp.thread = r }

func (qp *QP) workThread() *sim.Resource {
	if qp.thread != nil {
		return qp.thread
	}
	return qp.dev.node.CPU
}

// Num returns the queue pair number.
func (qp *QP) Num() uint32 { return qp.num }

// RemoteNode returns the peer's fabric node once connected, else nil.
func (qp *QP) RemoteNode() *fabric.Node { return qp.remoteNode }

// State returns the QP's lifecycle state.
func (qp *QP) State() QPState { return qp.state }

// Sent returns the number of send-side WRs completed successfully.
func (qp *QP) Sent() uint64 { return qp.sent }

// Received returns the number of receive completions delivered.
func (qp *QP) Received() uint64 { return qp.received }

// RecvDepth returns the number of receive WRs currently posted.
func (qp *QP) RecvDepth() int { return qp.recvQ.Len() }

// SendSlots returns how many more send WRs can be posted right now.
func (qp *QP) SendSlots() int { return qp.cfg.MaxSendWR - qp.outstanding - qp.sendQ.Len() }

// PostRecv posts receive buffers. Each WR must reference a local-writable
// registered region.
func (qp *QP) PostRecv(wrs ...RecvWR) error {
	if qp.state == QPError {
		return ErrQPState
	}
	if qp.recvQ.Len()+len(wrs) > qp.cfg.MaxRecvWR {
		return ErrRecvQueueFul
	}
	for _, wr := range wrs {
		if wr.MR == nil || !wr.MR.valid || wr.MR.access&AccessLocalWrite == 0 ||
			wr.Offset < 0 || wr.Length < 0 || wr.Offset+wr.Length > wr.MR.Len() {
			return fmt.Errorf("%w: recv wr %d", ErrBadMR, wr.ID)
		}
	}
	for _, wr := range wrs {
		qp.recvQ.Push(wr)
	}
	// Re-posting receives is a cheap doorbell on the posting thread.
	qp.workThread().Delay(qp.dev.params.RDMA.RecvWRRefill * sim.Time(len(wrs)))
	return nil
}

// PostSend posts one or more send-side WRs with a single doorbell: the
// first WR pays the full doorbell cost, the rest the batched marginal cost
// (the paper's batched posting optimization). WRs are processed by the NIC
// in order. PostSend copies the WRs, so the caller may reuse them; as with
// verbs, the bytes they reference (inline or in a region) must stay
// unchanged until the send completes.
func (qp *QP) PostSend(wrs ...*SendWR) error {
	if qp.state != QPReady {
		return ErrQPState
	}
	if len(wrs) == 0 {
		return nil
	}
	if qp.outstanding+qp.sendQ.Len()+len(wrs) > qp.cfg.MaxSendWR {
		return ErrSendQueueFul
	}
	for _, wr := range wrs {
		if err := qp.validateSend(wr); err != nil {
			return err
		}
	}
	p := qp.dev.params.RDMA
	cost := p.PostWR + p.PostWRBatched*sim.Time(len(wrs)-1)
	for _, wr := range wrs {
		qp.sendQ.Push(*wr)
	}
	qp.workThread().Acquire(cost, qp.pumpSendFn)
	return nil
}

func (qp *QP) validateSend(wr *SendWR) error {
	switch wr.Op {
	case OpSend, OpWrite:
	case OpRead:
		if len(wr.Inline) > 0 {
			return fmt.Errorf("rdma: READ cannot be inline")
		}
	default:
		return fmt.Errorf("rdma: bad opcode %v in send WR", wr.Op)
	}
	if len(wr.Inline) > 0 {
		if len(wr.Inline) > qp.cfg.MaxInline {
			return fmt.Errorf("%w: %d > %d", ErrInlineTooBig, len(wr.Inline), qp.cfg.MaxInline)
		}
		return nil
	}
	if wr.MR == nil || !wr.MR.valid ||
		wr.Offset < 0 || wr.Length < 0 || wr.Offset+wr.Length > wr.MR.Len() {
		return fmt.Errorf("%w: send wr %d", ErrBadMR, wr.ID)
	}
	return nil
}

// pumpSend drives the per-QP NIC transmit pipeline, one WR at a time to
// preserve RC ordering. Parallelism across QPs comes from the NIC engine
// pool.
func (qp *QP) pumpSend() {
	if qp.txActive || qp.sendQ.Len() == 0 || qp.state != QPReady {
		return
	}
	qp.txActive = true
	wr := qp.sendQ.Pop()
	qp.outstanding++

	p := qp.dev.params.RDMA
	// The NIC's DMA read of a region payload is the one copy out of the
	// sender's region; an inline payload rode in with the doorbell and
	// travels as posted.
	var payload []byte
	pooled := false
	if len(wr.Inline) > 0 {
		payload = wr.Inline
	} else if wr.Op != OpRead && wr.Length > 0 {
		payload = qp.dev.payloads.Get(wr.Length)
		wr.MR.ReadAt(payload, wr.Offset)
		pooled = true
	}

	// NIC engine work: descriptor processing plus the DMA read of the
	// payload (skipped for inline, which rode in with the doorbell).
	cost := p.NICProcess
	if wr.Op != OpRead {
		if len(wr.Inline) > 0 {
			cost -= p.InlineSave
			if cost < 0 {
				cost = 0
			}
		} else {
			cost += model.KB(p.DMAPerKB, len(payload))
		}
	}
	qp.txWR, qp.txPayload, qp.txPooled = wr, payload, pooled
	qp.dev.node.NIC.Acquire(cost, qp.txDoneFn)
}

// txDone puts the WR the NIC engine finished on the wire.
func (qp *QP) txDone() {
	wr, payload := qp.txWR, qp.txPayload
	e, ok := qp.freeTx.Get()
	if !ok {
		e = &txEntry{}
	}
	e.op, e.pooled = wr.Op, qp.txPooled
	qp.txWR, qp.txPayload, qp.txPooled = SendWR{}, nil, false
	msg := &e.msg
	msg.srcQPN, msg.dstQPN, msg.wrid = qp.num, qp.remoteQPN, wr.ID
	wire := len(payload)
	switch wr.Op {
	case OpSend:
		msg.kind = wireSend
		msg.data = payload
	case OpWrite:
		msg.kind = wireWrite
		msg.data = payload
		msg.rkey = wr.RemoteKey
		msg.roffset = wr.RemoteOffset
	case OpRead:
		msg.kind = wireReadReq
		msg.rkey = wr.RemoteKey
		msg.roffset = wr.RemoteOffset
		msg.length = wr.Length
		wire = ctrlWireBytes
		read := wr
		qp.pendingReads[wr.ID] = &read
	}
	msg.signaled = wr.Signaled
	msg.psn = qp.nextPSN
	qp.nextPSN++
	e.wire = wire
	qp.pending[msg.psn] = e
	qp.transmit(msg, wire)
	qp.txActive = false
	qp.pumpSend()
}

const ctrlWireBytes = 60

// transmit puts a wire message on the fabric.
func (qp *QP) transmit(msg *wireMsg, wire int) {
	if wire < ctrlWireBytes {
		wire = ctrlWireBytes
	}
	err := qp.dev.node.Network().Send(qp.dev.node, qp.remoteNode, fabric.ProtoRDMA, msg, wire)
	if err != nil {
		qp.fatal(msg.wrid, msg.kind.op(), StatusQPError)
	}
}

// fatal moves the QP to the error state and reports the failure.
func (qp *QP) fatal(wrid uint64, op Opcode, status Status) {
	if qp.state == QPError {
		return
	}
	qp.state = QPError
	qp.cfg.SendCQ.push(CQE{WRID: wrid, QPN: qp.num, Op: op, Status: status})
}
