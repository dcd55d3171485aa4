package rdma

import (
	"rubin/internal/fabric"
	"rubin/internal/model"
)

// wireKind discriminates RDMA protocol messages on the fabric.
type wireKind uint8

const (
	wireSend wireKind = iota + 1
	wireWrite
	wireReadReq
	wireReadResp
	wireAck
	wireRNR
	wireNakAccess
	wireNakLength
	// Connection-manager handshake.
	wireCMReq
	wireCMRep
	wireCMRTU
	wireCMRej
)

func (k wireKind) op() Opcode {
	switch k {
	case wireSend:
		return OpSend
	case wireWrite:
		return OpWrite
	case wireReadReq, wireReadResp:
		return OpRead
	default:
		return 0
	}
}

// wireMsg is the single payload type the device exchanges over the fabric.
type wireMsg struct {
	kind     wireKind
	srcQPN   uint32
	dstQPN   uint32
	wrid     uint64
	psn      uint64
	data     []byte
	rkey     uint32
	roffset  int
	length   int
	signaled bool
	// CM fields.
	cmPort int
	// owner is the device that created a recycled control message and
	// takes it back once it has been handled.
	owner *Device
}

// deliver is the fabric handler for ProtoRDMA frames: it demultiplexes to
// queue pairs and the connection manager.
func (d *Device) deliver(from *fabric.Node, payload any, wireBytes int) {
	msg, ok := payload.(*wireMsg)
	if !ok {
		return
	}
	switch msg.kind {
	case wireCMReq, wireCMRep, wireCMRTU, wireCMRej:
		d.handleCM(from, msg)
		return
	}
	qp := d.qps[msg.dstQPN]
	if qp == nil || qp.state == QPError {
		return
	}
	switch msg.kind {
	case wireSend, wireWrite, wireReadReq:
		// Requester->responder traffic runs through the per-QP receive
		// pipeline to preserve RC ordering.
		qp.rxQ.Push(msg)
		qp.pumpRecv()
	case wireAck:
		qp.handleAck(msg)
		if o := msg.owner; o != nil { // acks die on arrival
			o.freeMsgs.Put(msg)
		}
	case wireRNR:
		qp.handleRNR(msg)
	case wireNakAccess:
		qp.completeSend(msg.psn, StatusRemoteAccess)
	case wireNakLength:
		qp.completeSend(msg.psn, StatusRecvLengthErr)
	case wireReadResp:
		qp.handleReadResp(msg)
	}
}

// pumpRecv drives the per-QP responder pipeline one message at a time.
func (qp *QP) pumpRecv() {
	if qp.rxActive || qp.rxQ.Len() == 0 || qp.state == QPError {
		return
	}
	qp.rxActive = true
	msg := qp.rxQ.Pop()

	p := qp.dev.params.RDMA
	// Responder NIC work: descriptor processing plus the DMA that moves
	// the payload to or from host memory. All of it is on the NIC —
	// the remote CPU stays idle, which is RDMA's defining property.
	cost := p.NICProcess
	switch msg.kind {
	case wireSend, wireWrite:
		cost += model.KB(p.DMAPerKB, len(msg.data))
	case wireReadReq:
		cost += model.KB(p.DMAPerKB, msg.length)
	}
	qp.rxCur = msg
	qp.dev.node.NIC.Acquire(cost, qp.rxDoneFn)
}

// rxDone finishes the message the NIC engine processed.
func (qp *QP) rxDone() {
	msg := qp.rxCur
	qp.rxCur = nil
	qp.finishRecv(msg)
	qp.rxActive = false
	qp.pumpRecv()
}

func (qp *QP) finishRecv(msg *wireMsg) {
	p := qp.dev.params.RDMA
	// Strict RC ordering at the responder.
	if msg.psn < qp.rxExpected {
		// Duplicate of an already-processed packet: re-ack so the
		// sender can retire it; re-execute reads (idempotent).
		switch msg.kind {
		case wireSend, wireWrite:
			qp.reply(wireAck, msg.psn)
			return
		}
	} else if msg.psn > qp.rxExpected {
		// A gap: an earlier packet is in RNR backoff. Reject so the
		// sender retries this one after the gap fills.
		qp.reply(wireRNR, msg.psn)
		return
	}
	switch msg.kind {
	case wireSend:
		if qp.recvQ.Len() == 0 {
			// Receiver not ready: NAK so the sender backs off and
			// retries (paper: "it is important to allocate enough
			// receive requests").
			qp.dev.rnrNaks++
			qp.reply(wireRNR, msg.psn)
			return
		}
		wr := qp.recvQ.Pop()
		if wr.Length < len(msg.data) {
			qp.rxExpected = msg.psn + 1
			qp.cfg.RecvCQ.push(CQE{WRID: wr.ID, QPN: qp.num, Op: OpRecv, Status: StatusRecvLengthErr})
			qp.reply(wireNakLength, msg.psn)
			qp.state = QPError
			return
		}
		qp.rxExpected = msg.psn + 1
		wr.MR.WriteAt(msg.data, wr.Offset)
		qp.received++
		qp.dev.sendsRx++
		qp.dev.node.NIC.Delay(p.CQEGenerate)
		qp.cfg.RecvCQ.push(CQE{WRID: wr.ID, QPN: qp.num, Op: OpRecv, Status: StatusOK, Bytes: len(msg.data)})
		qp.reply(wireAck, msg.psn)

	case wireWrite:
		qp.rxExpected = msg.psn + 1
		mr := qp.dev.mrs[msg.rkey]
		if mr == nil || !mr.valid || mr.access&AccessRemoteWrite == 0 ||
			msg.roffset < 0 || msg.roffset+len(msg.data) > mr.Len() {
			qp.reply(wireNakAccess, msg.psn)
			return
		}
		mr.WriteAt(msg.data, msg.roffset)
		qp.dev.writesRx++
		// One-sided: no receive CQE, no CPU involvement; just the ack.
		qp.reply(wireAck, msg.psn)

	case wireReadReq:
		qp.rxExpected = msg.psn + 1
		mr := qp.dev.mrs[msg.rkey]
		if mr == nil || !mr.valid || mr.access&AccessRemoteRead == 0 ||
			msg.roffset < 0 || msg.roffset+msg.length > mr.Len() {
			qp.reply(wireNakAccess, msg.psn)
			return
		}
		qp.dev.readsRx++
		data := mr.ReadBytes(msg.roffset, msg.length)
		resp := &wireMsg{kind: wireReadResp, psn: msg.psn, wrid: msg.wrid, data: data}
		resp.dstQPN = msg.srcQPN
		resp.srcQPN = qp.num
		qp.transmit(resp, len(data))
	}
}

// reply sends a control message back to the peer QP.
func (qp *QP) reply(kind wireKind, psn uint64) {
	msg := qp.dev.newMsg()
	msg.kind, msg.psn = kind, psn
	msg.srcQPN = qp.num
	msg.dstQPN = qp.remoteQPN
	qp.transmit(msg, ctrlWireBytes)
}

// handleAck retires a pending send: the WR slot frees and, if the WR was
// signaled, a CQE is generated (selective signaling: unsignaled successes
// complete silently).
func (qp *QP) handleAck(msg *wireMsg) {
	entry := qp.pending[msg.psn]
	if entry == nil {
		return
	}
	delete(qp.pending, msg.psn)
	qp.outstanding--
	qp.sent++
	if entry.msg.signaled {
		qp.dev.node.NIC.Delay(qp.dev.params.RDMA.CQEGenerate)
		qp.cfg.SendCQ.push(CQE{
			WRID:   entry.msg.wrid,
			QPN:    qp.num,
			Op:     entry.op,
			Status: StatusOK,
			Bytes:  len(entry.msg.data),
		})
	}
	// The ack proves the responder has landed the payload, and a message
	// has at most one copy in flight (a retransmission is sent only after
	// its predecessor was refused), so nothing reads the entry or its
	// bytes again.
	if entry.pooled {
		qp.dev.payloads.Put(entry.msg.data)
	}
	*entry = txEntry{}
	qp.freeTx.Put(entry)
	qp.pumpSend()
}

// handleRNR retransmits after a backoff, up to the configured retry count.
func (qp *QP) handleRNR(msg *wireMsg) {
	entry := qp.pending[msg.psn]
	if entry == nil {
		return
	}
	p := qp.dev.params.RDMA
	entry.retries++
	// IB semantics: an RNR retry count of 7 retries forever.
	if p.RNRRetry < 7 && entry.retries > p.RNRRetry {
		delete(qp.pending, msg.psn)
		qp.outstanding--
		qp.fatal(entry.msg.wrid, entry.op, StatusRNRRetryExceeded)
		return
	}
	qp.dev.loop().After(p.RNRDelay, func() {
		if qp.state != QPReady {
			return
		}
		// The NIC re-reads the payload for the retransmission.
		cost := p.NICProcess + model.KB(p.DMAPerKB, len(entry.msg.data))
		qp.dev.node.NIC.Acquire(cost, func() {
			if qp.state == QPReady {
				qp.transmit(&entry.msg, entry.wire)
			}
		})
	})
}

// completeSend finishes a pending send with an error status and moves the
// QP to the error state.
func (qp *QP) completeSend(psn uint64, status Status) {
	entry := qp.pending[psn]
	if entry == nil {
		return
	}
	delete(qp.pending, psn)
	qp.outstanding--
	qp.fatal(entry.msg.wrid, entry.op, status)
}

// handleReadResp lands one-sided READ data in the requester's local region.
func (qp *QP) handleReadResp(msg *wireMsg) {
	wr := qp.pendingReads[msg.wrid]
	if wr == nil {
		return
	}
	delete(qp.pendingReads, msg.wrid)
	entry := qp.pending[msg.psn]
	p := qp.dev.params.RDMA
	// The local NIC DMA-writes the returned data into the WR's region.
	qp.dev.node.NIC.Acquire(p.NICProcess+model.KB(p.DMAPerKB, len(msg.data)), func() {
		wr.MR.WriteAt(msg.data, wr.Offset)
		if entry != nil {
			delete(qp.pending, msg.psn)
			qp.outstanding--
			qp.sent++
		}
		if wr.Signaled {
			qp.dev.node.NIC.Delay(p.CQEGenerate)
			qp.cfg.SendCQ.push(CQE{
				WRID:   wr.ID,
				QPN:    qp.num,
				Op:     OpRead,
				Status: StatusOK,
				Bytes:  len(msg.data),
			})
		}
		qp.pumpSend()
	})
}
