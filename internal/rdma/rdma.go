// Package rdma simulates an RDMA-capable NIC and the verbs programming
// model: protection domains, registered memory regions, reliable-connection
// queue pairs, work requests, completion queues with event notification,
// two-sided SEND/RECV, one-sided WRITE/READ, inline sends, selective
// signaling, doorbell batching and receiver-not-ready (RNR) retry.
//
// The simulation charges data-path work to the NIC engine resource rather
// than the host CPU — kernel bypass and zero copy are therefore structural,
// not just smaller constants: a SEND costs the CPU only the doorbell ring,
// while payload bytes move on the NIC's DMA engines. This is the property
// the paper exploits and the baseline TCP stack (package tcpsim) lacks.
//
// Memory regions carry real backing bytes and one-sided operations are
// bounds- and access-checked against the remote key, so the security
// concerns of Section III-C (stray STag access, read/write races) are
// observable in tests.
package rdma

import (
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// Errors returned by verbs calls.
var (
	ErrQPState      = errors.New("rdma: queue pair not in a usable state")
	ErrSendQueueFul = errors.New("rdma: send queue full")
	ErrRecvQueueFul = errors.New("rdma: receive queue full")
	ErrInlineTooBig = errors.New("rdma: inline payload exceeds limit")
	ErrBadMR        = errors.New("rdma: memory region invalid for request")
	ErrPortInUse    = errors.New("rdma: CM port already in use")
	ErrRejected     = errors.New("rdma: connection rejected")
)

// Access is the bitmask of permissions granted when registering memory.
type Access uint8

// Access flags; LocalWrite is required for receive buffers, the remote
// flags expose the region to one-sided operations from the peer.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
)

// Opcode identifies the kind of work request.
type Opcode uint8

// Work request opcodes.
const (
	OpSend Opcode = iota + 1
	OpWrite
	OpRead
	OpRecv
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpRecv:
		return "RECV"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is the completion status of a work request.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRNRRetryExceeded
	StatusRemoteAccess
	StatusRecvLengthErr
	StatusQPError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRNRRetryExceeded:
		return "RNR_RETRY_EXCEEDED"
	case StatusRemoteAccess:
		return "REMOTE_ACCESS_ERROR"
	case StatusRecvLengthErr:
		return "RECV_LENGTH_ERROR"
	case StatusQPError:
		return "QP_ERROR"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// CQE is a completion queue entry.
type CQE struct {
	WRID   uint64
	QPN    uint32
	Op     Opcode
	Status Status
	Bytes  int
}

// Device is the per-node RNIC instance.
type Device struct {
	node   *fabric.Node
	params model.Params

	nextQPN  uint32
	nextKey  uint32
	qps      map[uint32]*QP
	mrs      map[uint32]*MR // by rkey, for one-sided validation
	cmPorts  map[int]*cmListener
	nextPort int

	// In-flight connection-manager handshakes.
	pendingCM   map[uint32]*pendingConnect // by local (client) QPN
	cmAccepting map[uint32]*cmListener     // by local (server) QPN awaiting RTU

	// Recycled memory: payload buffers, and control messages, which die
	// on arrival.
	payloads sim.BufPool
	freeMsgs sim.FreeList[*wireMsg]

	// Stats.
	sendsRx, writesRx, readsRx uint64
	rnrNaks                    uint64
}

// newMsg returns a zeroed control message, recycled when possible.
func (d *Device) newMsg() *wireMsg {
	if m, ok := d.freeMsgs.Get(); ok {
		*m = wireMsg{owner: d}
		return m
	}
	return &wireMsg{owner: d}
}

// OpenDevice creates the RNIC on a node and claims the node's ProtoRDMA
// handler. A node hosts at most one device.
func OpenDevice(node *fabric.Node) *Device {
	d := &Device{
		node:     node,
		params:   node.Network().Params(),
		nextQPN:  1,
		nextKey:  1,
		qps:      make(map[uint32]*QP),
		mrs:      make(map[uint32]*MR),
		cmPorts:  make(map[int]*cmListener),
		nextPort: 49152,
	}
	node.Register(fabric.ProtoRDMA, d.deliver)
	return d
}

// Node returns the fabric node the device is attached to.
func (d *Device) Node() *fabric.Node { return d.node }

func (d *Device) loop() *sim.Loop { return d.node.Loop() }

// RNRNaks returns how many receiver-not-ready NAKs this device has sent.
func (d *Device) RNRNaks() uint64 { return d.rnrNaks }

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD {
	return &PD{dev: d}
}

// PD is a protection domain scoping memory regions and queue pairs.
type PD struct {
	dev *Device
}

// Device returns the owning device.
func (pd *PD) Device() *Device { return pd.dev }

// mrPageSize is the granularity at which a region's backing memory
// exists. A region is sparse: a page is allocated the first time a write
// touches it, and reads of untouched pages see zeros, so registering a
// large pool costs only the bytes actually carried through it.
const mrPageSize = 4096

// MR is a registered memory region backed by sparse, page-granular bytes.
type MR struct {
	pd     *PD
	size   int
	pages  []*[mrPageSize]byte
	lkey   uint32
	rkey   uint32
	access Access
	valid  bool
}

// RegisterMR pins and registers size bytes with the NIC. The CPU cost of
// page pinning and NIC translation-table programming is charged
// immediately; ready runs when registration completes (may be nil for
// setup-time registration where the caller does not care about the delay).
func (pd *PD) RegisterMR(size int, access Access, ready func()) *MR {
	dev := pd.dev
	mr := &MR{
		pd:     pd,
		size:   size,
		pages:  make([]*[mrPageSize]byte, (size+mrPageSize-1)/mrPageSize),
		lkey:   dev.nextKey,
		rkey:   dev.nextKey + 1,
		access: access,
		valid:  true,
	}
	dev.nextKey += 2
	dev.mrs[mr.rkey] = mr
	cost := dev.params.RDMA.MemRegisterBase + model.KB(dev.params.RDMA.MemRegisterPerKB, size)
	dev.node.CPU.Acquire(cost, func() {
		if ready != nil {
			ready()
		}
	})
	return mr
}

// Deregister invalidates the region; subsequent remote access fails.
func (mr *MR) Deregister() {
	if mr.valid {
		mr.valid = false
		delete(mr.pd.dev.mrs, mr.rkey)
	}
}

// WriteAt copies p into the region starting at off, like copy into a
// slice of the region: bytes past the region's end are dropped.
func (mr *MR) WriteAt(p []byte, off int) {
	if off > mr.size {
		panic(fmt.Sprintf("rdma: MR write at %d beyond length %d", off, mr.size))
	}
	p = p[:min(len(p), mr.size-off)]
	for len(p) > 0 {
		pg := mr.pages[off/mrPageSize]
		if pg == nil {
			pg = new([mrPageSize]byte)
			mr.pages[off/mrPageSize] = pg
		}
		n := copy(pg[off%mrPageSize:], p)
		p, off = p[n:], off+n
	}
}

// ReadAt fills p with the region's bytes starting at off; never-written
// pages read as zeros. The range must lie inside the region.
func (mr *MR) ReadAt(p []byte, off int) {
	if off < 0 || off+len(p) > mr.size {
		panic(fmt.Sprintf("rdma: MR read [%d,%d) beyond length %d", off, off+len(p), mr.size))
	}
	for len(p) > 0 {
		var n int
		if pg := mr.pages[off/mrPageSize]; pg != nil {
			n = copy(p, pg[off%mrPageSize:])
		} else {
			n = min(len(p), mrPageSize-off%mrPageSize)
			clear(p[:n])
		}
		p, off = p[n:], off+n
	}
}

// ReadBytes returns a fresh copy of the n bytes starting at off (nil
// when n is 0).
func (mr *MR) ReadBytes(off, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	mr.ReadAt(b, off)
	return b
}

// Len returns the region size.
func (mr *MR) Len() int { return mr.size }

// RKey returns the remote key a peer needs for one-sided access.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Access returns the region's permission mask.
func (mr *MR) Access() Access { return mr.access }

// CQ is a completion queue with an optional completion-channel callback.
type CQ struct {
	dev      *Device
	capacity int
	entries  sim.FIFO[CQE]
	polled   []CQE // Poll's result, reused by the next Poll
	onEvent  func()
	notifyFn func() // the completion-channel wakeup, built once
	armed    bool
	overflow bool

	// thread is where poll and completion-handling CPU costs are
	// charged; defaults to the node CPU, but applications with a single
	// event-loop thread (selectors) point it at that thread's resource.
	thread *sim.Resource

	// eventCost overrides the per-notification CPU cost (default:
	// RDMAParams.CompletionHandle, the heavy event-channel path).
	// Frameworks with their own lightweight event manager — RUBIN's
	// hybrid event queue — set a smaller value and charge their own
	// dispatch cost instead.
	eventCost sim.Time
	hasCost   bool

	// notifyPending prevents charging more than one in-flight wakeup.
	notifyPending bool
}

// SetEventCost overrides the CPU cost charged per completion-channel
// notification.
func (cq *CQ) SetEventCost(d sim.Time) {
	cq.eventCost = d
	cq.hasCost = true
}

func (cq *CQ) notifyCost() sim.Time {
	if cq.hasCost {
		return cq.eventCost
	}
	return cq.dev.params.RDMA.CompletionHandle
}

// SetWorkThread redirects the CQ's CPU costs (poll, completion handling)
// to the given resource, typically a single-server application thread.
func (cq *CQ) SetWorkThread(r *sim.Resource) { cq.thread = r }

func (cq *CQ) workThread() *sim.Resource {
	if cq.thread != nil {
		return cq.thread
	}
	return cq.dev.node.CPU
}

// CreateCQ creates a completion queue holding up to capacity entries.
func (d *Device) CreateCQ(capacity int) *CQ {
	if capacity < 1 {
		panic("rdma: CQ capacity must be positive")
	}
	cq := &CQ{dev: d, capacity: capacity}
	cq.notifyFn = cq.notify
	return cq
}

// OnEvent installs the completion-channel callback. The callback fires
// (after the modeled completion-handling CPU cost) when a CQE is added
// while the CQ is armed; it is then disarmed until RequestNotify is called
// again — matching ibv completion-channel semantics.
func (cq *CQ) OnEvent(fn func()) { cq.onEvent = fn }

// RequestNotify arms the completion channel for the next CQE.
func (cq *CQ) RequestNotify() {
	cq.armed = true
	if cq.entries.Len() > 0 {
		cq.fire()
	}
}

// Poll removes and returns up to max entries. The poll cost is charged to
// the CPU. Polling an empty CQ returns nil. Like ibv_poll_cq filling the
// caller's array, the returned slice is reused: it is valid until the
// next Poll on this CQ.
func (cq *CQ) Poll(max int) []CQE {
	if cq.entries.Len() == 0 || max <= 0 {
		return nil
	}
	n := min(max, cq.entries.Len())
	out := cq.polled[:0]
	for i := 0; i < n; i++ {
		out = append(out, cq.entries.Pop())
	}
	cq.polled = out
	cq.workThread().Delay(cq.dev.params.RDMA.CQPoll)
	return out
}

// Depth returns the number of entries waiting in the queue.
func (cq *CQ) Depth() int { return cq.entries.Len() }

// Overflowed reports whether the CQ ever dropped an entry because it was
// full — a fatal condition for a real application.
func (cq *CQ) Overflowed() bool { return cq.overflow }

func (cq *CQ) push(e CQE) {
	if cq.entries.Len() >= cq.capacity {
		cq.overflow = true
		return
	}
	cq.entries.Push(e)
	if cq.armed {
		cq.fire()
	}
}

func (cq *CQ) fire() {
	if cq.onEvent == nil || cq.notifyPending {
		return
	}
	cq.armed = false
	cq.notifyPending = true
	cq.workThread().Acquire(cq.notifyCost(), cq.notifyFn)
}

func (cq *CQ) notify() {
	cq.notifyPending = false
	if cq.onEvent != nil {
		cq.onEvent()
	}
}
