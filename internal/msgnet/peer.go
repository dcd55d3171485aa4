package msgnet

import (
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// outItem is one accepted message waiting in a class queue. msg is a
// pooled buffer already laid out as the message's wire frames: one whole
// frame (count==0), or count digest-chained chunk frames back to back,
// payload in place and headers filled in at emission time (the digest
// chain is only known then). index/prev track the emission cursor. The
// buffer and the item return to the mesh pool once the substrate has
// accepted the last frame.
type outItem struct {
	msg    []byte
	stream uint64
	count  uint32
	index  uint32
	prev   auth.Digest

	// Set only while span recording is on: the enqueue instant, so the
	// final dequeue can emit a send-queue-wait span.
	traced bool
	enqAt  sim.Time
}

// classQueue is one class's FIFO of queued items. Pops advance a head
// index instead of re-slicing, and the backing array resets once the
// queue drains — so steady-state queuing allocates nothing.
type classQueue struct {
	items []*outItem
	head  int
}

func (q *classQueue) push(it *outItem) { q.items = append(q.items, it) }

func (q *classQueue) peek() *outItem {
	if q.head >= len(q.items) {
		return nil
	}
	return q.items[q.head]
}

func (q *classQueue) pop() *outItem {
	if q.head >= len(q.items) {
		return nil
	}
	it := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

func (q *classQueue) len() int { return len(q.items) - q.head }

// inStream is the reassembly state of one inbound chunked message.
type inStream struct {
	class Class
	count uint32
	next  uint32
	prev  auth.Digest
	buf   []byte
}

// Peer is one bidirectional message channel to a remote node. Handles are
// created by Mesh.Dial and Mesh.Listen and survive protocol-layer
// restarts: callbacks may be re-installed at any time.
type Peer struct {
	mesh     *Mesh
	conn     transport.Conn
	outbound bool
	closed   bool

	// Delivery.
	onMsg   func(Class, []byte)
	inbox   []inboxEntry
	streams map[uint64]*inStream

	// Send scheduling. queueBytes counts on-wire framed bytes (headers
	// included) for every queued frame, so admission, watermarks and the
	// peak series all speak the same unit. pumpFn is the pump bound once
	// at creation so arming does not allocate a method value per turn.
	queues      [numClasses]classQueue
	cursor      int
	queueBytes  int
	queueFrames int
	pumpArmed   bool
	waitDrain   bool
	suspended   bool // a Send was rejected; OnWritable pending
	nextStream  uint64
	pumpFn      func()

	// Error surface and stats.
	onClose        func()
	onSendErr      func(error)
	onRecvErr      func(error)
	onWritable     func()
	sendErrs       uint64
	recvErrs       uint64
	peakQueueBytes int
}

type inboxEntry struct {
	class Class
	msg   []byte
}

// Remote returns the peer's node.
func (p *Peer) Remote() *fabric.Node { return p.conn.Peer() }

// Outbound reports whether this side dialed the connection.
func (p *Peer) Outbound() bool { return p.outbound }

// Closed reports whether the peer (or its substrate connection) is torn
// down.
func (p *Peer) Closed() bool { return p.closed }

// QueueBytes returns the bytes currently queued for sending.
func (p *Peer) QueueBytes() int { return p.queueBytes }

// QueueDepth returns the frames currently queued for sending.
func (p *Peer) QueueDepth() int { return p.queueFrames }

// PeakQueueBytes returns the high-water mark the send queue has reached.
func (p *Peer) PeakQueueBytes() int { return p.peakQueueBytes }

// SendErrors counts every surfaced send failure: rejected Sends and
// messages dropped because the connection died while they were queued.
func (p *Peer) SendErrors() uint64 { return p.sendErrs }

// RecvErrors counts rejected inbound frames (corrupted digests, broken
// chunk chains, malformed frames).
func (p *Peer) RecvErrors() uint64 { return p.recvErrs }

// OnMessage installs the delivery callback, receiving each reassembled
// message with its traffic class. Messages arriving before a callback is
// installed queue internally, so a restarted consumer can re-attach
// without loss. A delivered message is the payload of the transport's
// buffer or a reassembly buffer of its own, so it falls under the
// transport's ownership contract (transport.Conn.OnMessage): the receiver
// may retain it and nobody modifies it.
func (p *Peer) OnMessage(fn func(class Class, msg []byte)) {
	p.onMsg = fn
	for len(p.inbox) > 0 && p.onMsg != nil {
		e := p.inbox[0]
		p.inbox = p.inbox[1:]
		p.onMsg(e.class, e.msg)
	}
}

// OnClose installs a callback for peer teardown.
func (p *Peer) OnClose(fn func()) { p.onClose = fn }

// OnSendError installs the asynchronous delivery-failure callback: it
// fires once per message dropped by a dying connection and once per
// failed substrate send. Synchronous failures are returned by Send
// itself; both paths increment SendErrors by the same amount, so
// counting in the hook and checking Send's return never double-reports
// or under-reports a failure.
func (p *Peer) OnSendError(fn func(error)) { p.onSendErr = fn }

// OnRecvError installs a callback for rejected inbound frames. The
// stream the frame belonged to is dropped; other streams and subsequent
// messages are unaffected.
func (p *Peer) OnRecvError(fn func(error)) { p.onRecvErr = fn }

// OnWritable installs the backpressure-release callback: after a Send
// has been rejected with ErrBacklog, it fires once the queue drains to
// the low watermark.
func (p *Peer) OnWritable(fn func()) { p.onWritable = fn }

// Close tears the peer down. Queued messages are reported as failed
// through the send-error surface, never silently discarded.
func (p *Peer) Close() {
	if p.closed {
		return
	}
	p.conn.Close() // triggers connClosed via the conn's OnClose
	p.connClosed()
}

// Send queues one message of the given class for delivery. Messages
// above the transport's frame limit are fragmented transparently; the
// error return is never nil for a message that will not be delivered
// barring connection failure (which reports through OnSendError).
func (p *Peer) Send(class Class, msg []byte) error {
	if p.closed {
		return p.sendFail(ErrClosed)
	}
	if int(class) >= numClasses {
		return p.sendFail(fmt.Errorf("msgnet: invalid class %d", class))
	}
	if len(msg) > p.mesh.opts.MaxTransfer {
		return p.sendFail(fmt.Errorf("%w: %d bytes", ErrTooBig, len(msg)))
	}
	// framed is the total on-wire size this message will occupy, headers
	// included — whole frames pay wholeHeaderLen, chunked messages pay
	// one chunkHeaderLen per chunk.
	var count uint32
	framed := wholeHeaderLen + len(msg)
	if len(msg) > p.mesh.opts.maxWhole() {
		chunk := p.mesh.opts.chunkPayload()
		count = uint32((len(msg) + chunk - 1) / chunk)
		framed = len(msg) + int(count)*chunkHeaderLen
	}
	if p.queueBytes > 0 && p.queueBytes+framed > p.mesh.opts.MaxQueueBytes {
		p.suspended = true
		return p.sendFail(fmt.Errorf("%w: %d bytes queued", ErrBacklog, p.queueBytes))
	}
	// The queue may outlive the caller's buffer by many events, so the
	// item owns a copy — a pooled buffer pre-laid-out as the wire frames
	// themselves, so the pump slices frames out instead of re-encoding
	// and a steady-state Send allocates nothing.
	it := p.mesh.getItem()
	it.msg = p.mesh.bufs.Get(framed)
	if count > 0 {
		chunk := p.mesh.opts.chunkPayload()
		stride := chunkHeaderLen + chunk
		for i := 0; i*chunk < len(msg); i++ {
			end := (i + 1) * chunk
			if end > len(msg) {
				end = len(msg)
			}
			copy(it.msg[i*stride+chunkHeaderLen:], msg[i*chunk:end])
		}
		it.count = count
		it.stream = p.nextStream
		p.nextStream++
		p.queueFrames += int(count)
	} else {
		it.msg[0] = frameWhole
		it.msg[1] = byte(class)
		copy(it.msg[wholeHeaderLen:], msg)
		p.queueFrames++
	}
	if p.mesh.tracer.SpansEnabled() {
		it.traced, it.enqAt = true, p.mesh.node.Loop().Now()
	}
	p.queues[class].push(it)
	p.queueBytes += framed
	if p.queueBytes > p.peakQueueBytes {
		p.peakQueueBytes = p.queueBytes
	}
	p.arm()
	return nil
}

// sendFail counts and returns a synchronous send error.
func (p *Peer) sendFail(err error) error {
	p.sendErrs++
	return err
}

// arm schedules one scheduler turn on the sim loop (deterministic: Post
// ordering is the loop's (time, seq) order).
func (p *Peer) arm() {
	if p.pumpArmed || p.waitDrain || p.closed {
		return
	}
	p.pumpArmed = true
	p.mesh.node.Loop().Post(p.pumpFn)
}

// pump releases up to Burst frames to the substrate, round-robining the
// class queues, then yields. It pauses on substrate backlog and resumes
// on the connection's drain edge, so a bulk stream is metered into the
// wire queue instead of monopolizing it.
func (p *Peer) pump() {
	p.pumpArmed = false
	if p.closed {
		return
	}
	for budget := p.mesh.opts.Burst; budget > 0; budget-- {
		if p.conn.Unsent() >= p.mesh.opts.SubstrateBacklog {
			p.waitDrain = true
			return
		}
		f, fin, ok := p.nextFrame()
		if !ok {
			break
		}
		err := p.conn.Send(f)
		if fin != nil {
			// Both substrates copy what they need inside Send (see the
			// buffer-ownership rules in docs/ARCHITECTURE.md), so the
			// completed item's buffer recycles immediately — even when
			// the send failed.
			p.mesh.bufs.Put(fin.msg)
			p.mesh.putItem(fin)
		}
		if err != nil {
			p.asyncSendFail(err)
			return
		}
	}
	if p.queueFrames > 0 {
		p.arm()
	}
	p.signalWritable()
}

// nextFrame returns the next frame in class round-robin order: one whole
// message or one chunk of the head-of-line chunked message. Every frame
// is a slice of the item's owned buffer — chunk headers are filled in
// place here, where the digest chain is known. fin is non-nil when this
// frame completes its message: the caller recycles fin's buffer and item
// once the substrate send returns. queueBytes drops by exactly the frame
// length, mirroring the framed-byte admission accounting.
func (p *Peer) nextFrame() (f []byte, fin *outItem, ok bool) {
	for i := 0; i < numClasses; i++ {
		cls := (p.cursor + i) % numClasses
		q := &p.queues[cls]
		it := q.peek()
		if it == nil {
			continue
		}
		p.cursor = (cls + 1) % numClasses
		p.queueFrames--
		if it.count == 0 {
			q.pop()
			p.queueBytes -= len(it.msg)
			p.traceDequeue(it, Class(cls))
			return it.msg, it, true
		}
		stride := chunkHeaderLen + p.mesh.opts.chunkPayload()
		start := int(it.index) * stride
		end := start + stride
		if end > len(it.msg) {
			end = len(it.msg)
		}
		f = it.msg[start:end]
		payload := f[chunkHeaderLen:]
		p.chargeDigest(len(payload))
		digest := auth.Hash(payload)
		putChunkHeader(f, Class(cls), it.stream, it.index, it.count, digest, it.prev)
		it.index++
		it.prev = digest
		p.queueBytes -= len(f)
		if it.index == it.count {
			q.pop()
			p.traceDequeue(it, Class(cls))
			fin = it
		}
		return f, fin, true
	}
	return nil, nil, false
}

// traceDequeue emits the send-queue-wait span of a fully dequeued item.
// Zero-wait messages (dequeued at their enqueue instant, the common case
// off saturation) are skipped — the trace shows contention, not traffic.
func (p *Peer) traceDequeue(it *outItem, cls Class) {
	if !it.traced {
		return
	}
	now := p.mesh.node.Loop().Now()
	if now > it.enqAt {
		p.mesh.tracer.Span("msgnet", "sendq "+cls.String(),
			p.mesh.node.Name()+"->"+p.Remote().Name(), "", it.enqAt, now)
	}
}

// signalWritable fires OnWritable once the queue has drained to the low
// watermark after a rejected Send.
func (p *Peer) signalWritable() {
	if !p.suspended || p.queueBytes > p.mesh.opts.LowWaterBytes {
		return
	}
	p.suspended = false
	if p.onWritable != nil {
		p.mesh.node.Loop().Post(p.onWritable)
	}
}

// substrateDrained is the conn's drain edge: resume a paused scheduler.
func (p *Peer) substrateDrained() {
	if !p.waitDrain {
		return
	}
	p.waitDrain = false
	p.arm()
}

// asyncSendFail surfaces a substrate-level send failure.
func (p *Peer) asyncSendFail(err error) {
	p.sendErrs++
	if p.onSendErr != nil {
		p.onSendErr(err)
	}
	if err == transport.ErrClosed {
		p.connClosed()
	}
}

// connClosed tears the peer down, reporting every queued-but-undelivered
// message through the send-error surface.
func (p *Peer) connClosed() {
	if p.closed {
		return
	}
	p.closed = true
	dropped := 0
	for cls := range p.queues {
		q := &p.queues[cls]
		dropped += q.len()
		for {
			it := q.pop()
			if it == nil {
				break
			}
			p.mesh.bufs.Put(it.msg)
			p.mesh.putItem(it)
		}
	}
	p.queueBytes = 0
	p.queueFrames = 0
	// A Send rejected at the high watermark leaves suspended set, waiting
	// for a drain edge that will never come on a dead connection. Clear
	// it: the failure surfaces through the per-message send errors below
	// and OnClose — OnWritable must never fire on a closed peer, and a
	// wedged flag must not linger either.
	p.suspended = false
	p.streams = make(map[uint64]*inStream)
	if dropped > 0 {
		p.sendErrs += uint64(dropped)
		if p.onSendErr != nil {
			// One invocation per dropped message, matching the counter,
			// so per-invocation consumers tally the same total.
			err := fmt.Errorf("%w: queued message dropped", ErrClosed)
			for i := 0; i < dropped; i++ {
				p.onSendErr(err)
			}
		}
	}
	if p.onClose != nil {
		p.onClose()
	}
}

// dispatch handles one inbound transport message: decode the frame,
// verify the chunk chain, reassemble, deliver.
func (p *Peer) dispatch(raw []byte) {
	if p.closed {
		return // frames (including late chunks) after Close are dropped
	}
	f, err := decodeFrame(raw)
	if err != nil {
		p.recvFail(err)
		return
	}
	if int(f.class) >= numClasses {
		p.recvFail(fmt.Errorf("msgnet: frame with invalid class %d", f.class))
		return
	}
	if f.kind == frameWhole {
		p.handOff(f.class, f.payload)
		return
	}
	p.chargeDigest(len(f.payload))
	if auth.Hash(f.payload) != f.digest {
		delete(p.streams, f.stream)
		p.recvFail(fmt.Errorf("msgnet: chunk %d of stream %d fails its digest", f.index, f.stream))
		return
	}
	st := p.streams[f.stream]
	if st == nil {
		if f.index != 0 {
			p.recvFail(fmt.Errorf("msgnet: stream %d starts at chunk %d", f.stream, f.index))
			return
		}
		if f.count < 1 || int(f.count) > p.maxChunks() {
			p.recvFail(fmt.Errorf("msgnet: stream %d advertises %d chunks", f.stream, f.count))
			return
		}
		st = &inStream{class: f.class, count: f.count}
		p.streams[f.stream] = st
	}
	if f.index != st.next || f.count != st.count || f.class != st.class || f.prev != st.prev {
		delete(p.streams, f.stream)
		p.recvFail(fmt.Errorf("msgnet: chunk chain broken on stream %d (chunk %d)", f.stream, f.index))
		return
	}
	st.buf = append(st.buf, f.payload...)
	st.next++
	st.prev = f.digest
	if st.next == st.count {
		delete(p.streams, f.stream)
		p.handOff(st.class, st.buf)
	}
}

// maxChunks bounds an advertised stream length by MaxTransfer.
func (p *Peer) maxChunks() int {
	chunk := p.mesh.opts.chunkPayload()
	return (p.mesh.opts.MaxTransfer + chunk - 1) / chunk
}

func (p *Peer) recvFail(err error) {
	p.recvErrs++
	if p.onRecvErr != nil {
		p.onRecvErr(err)
	}
}

func (p *Peer) handOff(class Class, msg []byte) {
	if p.onMsg != nil {
		p.onMsg(class, msg)
	} else {
		p.inbox = append(p.inbox, inboxEntry{class: class, msg: msg})
	}
}

// chargeDigest models the CPU cost of hashing one chunk payload on the
// node, keeping virtual-time traces honest about the chunking overhead.
func (p *Peer) chargeDigest(n int) {
	params := p.mesh.node.Network().Params()
	p.mesh.node.CPU.Delay(auth.DigestCost(params.Crypto, n))
}
