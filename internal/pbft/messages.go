// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI '99) — the agreement protocol Reptor runs — over
// the pluggable transport stacks, so the same replica code measures both
// the Java-NIO baseline and RUBIN.
//
// The implementation covers the full normal-case three-phase protocol
// (pre-prepare / prepare / commit) with request batching, HMAC
// authenticators on every replica message, periodic checkpoints with log
// garbage collection, and view changes driven by request timers. Fault
// injection hooks (Faults) let tests exercise Byzantine leaders and
// crashed replicas.
package pbft

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"rubin/internal/auth"
)

// MsgType discriminates protocol messages on the wire.
type MsgType uint8

// Protocol message types.
const (
	MsgRequest MsgType = iota + 1
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgReply
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgStateRequest
	MsgStateResponse
	MsgReadRequest
	MsgReadReply
	MsgStateManifest
	MsgStatePart
)

func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgPrePrepare:
		return "PRE-PREPARE"
	case MsgPrepare:
		return "PREPARE"
	case MsgCommit:
		return "COMMIT"
	case MsgReply:
		return "REPLY"
	case MsgCheckpoint:
		return "CHECKPOINT"
	case MsgViewChange:
		return "VIEW-CHANGE"
	case MsgNewView:
		return "NEW-VIEW"
	case MsgStateRequest:
		return "STATE-REQUEST"
	case MsgStateResponse:
		return "STATE-RESPONSE"
	case MsgReadRequest:
		return "READ-REQUEST"
	case MsgReadReply:
		return "READ-REPLY"
	case MsgStateManifest:
		return "STATE-MANIFEST"
	case MsgStatePart:
		return "STATE-PART"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Request is a client operation to be ordered and executed.
type Request struct {
	Client    uint32
	Timestamp uint64 // client-local, provides exactly-once semantics
	Op        []byte
}

// Key identifies a request for reply caching and timer bookkeeping.
func (r Request) Key() string { return requestKey(r.Client, r.Timestamp) }

// requestKey formats "client/timestamp" without fmt's reflection: keys
// are built several times per request on the hot path.
func requestKey(client uint32, ts uint64) string {
	var b [32]byte
	k := strconv.AppendUint(b[:0], uint64(client), 10)
	k = append(k, '/')
	return string(strconv.AppendUint(k, ts, 10))
}

// PrePrepare is the leader's ordering proposal for one batch.
type PrePrepare struct {
	View   uint64
	Seq    uint64
	Digest auth.Digest // digest over the encoded batch
	Batch  []Request
}

// Prepare is a backup's agreement echo for a proposal.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// Commit finalizes a prepared proposal.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// Reply carries an execution result back to the client.
type Reply struct {
	View      uint64
	Timestamp uint64
	Client    uint32
	Replica   uint32
	Result    []byte
}

// Checkpoint advertises a replica's state digest at a checkpoint sequence.
type Checkpoint struct {
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// PreparedProof summarizes one prepared-but-unexecuted slot for a view
// change.
type PreparedProof struct {
	View   uint64
	Seq    uint64
	Digest auth.Digest
	Batch  []Request
}

// ViewChange asks to move to a new view, carrying the prepared set above
// the sender's last stable checkpoint.
type ViewChange struct {
	NewView  uint64
	Stable   uint64
	Prepared []PreparedProof
	Replica  uint32
}

// NewView is the new leader's installation message re-proposing the
// prepared slots.
type NewView struct {
	View        uint64
	PrePrepares []PrePrepare
}

// StateRequest asks peers for the state at their latest stable checkpoint.
// A restarted or lagging replica sends it when it detects that the group
// has advanced past its own execution point (Castro & Liskov §4.6, state
// transfer).
type StateRequest struct {
	// Seq is the requester's last executed sequence; peers respond only
	// if their stable checkpoint is beyond it.
	Seq     uint64
	Replica uint32
	// Root and Digests describe the requester's current Merkle state
	// (partitioned applications only): the root digest plus every leaf
	// partition digest. A responder holding partitioned checkpoints
	// streams only the partitions whose digests diverge; an empty digest
	// list requests the legacy full-snapshot StateResponse.
	Root    auth.Digest
	Digests []auth.Digest
}

// StateManifest opens a partial state transfer: it describes one retained
// checkpoint of a partitioned application — the quorum-certifiable root,
// the transfer header (application metadata outside the partitions) and
// every leaf partition digest. The requester verifies the manifest is
// self-consistent (ComposeRoot(Header, Digests) == Root), then verifies
// every arriving StatePart against Digests, so a Byzantine responder is
// caught on the first corrupt partition rather than after a full
// download. Adoption still requires the root be certified by F+1 matching
// manifests or a checkpoint-quorum certificate.
type StateManifest struct {
	// Seq is the responder's retained checkpoint sequence.
	Seq uint64
	// View is the responder's current view (rejoin hint, as in
	// StateResponse).
	View uint64
	// Root is the checkpoint's state digest (the Merkle root).
	Root auth.Digest
	// Header is the application's transfer header at the checkpoint.
	Header []byte
	// Digests are the leaf partition digests at the checkpoint.
	Digests []auth.Digest
	Replica uint32
}

// StatePart carries one divergent partition of a partial state transfer.
// It rides msgnet's bulk class like full snapshots, so streaming a large
// state never head-of-line-blocks agreement traffic.
type StatePart struct {
	// Seq is the checkpoint sequence of the manifest this part belongs to.
	Seq uint64
	// Part is the partition index.
	Part uint32
	// Data is the serialized partition; auth.Hash(Data) must equal the
	// manifest's Digests[Part].
	Data    []byte
	Replica uint32
}

// StateResponse carries a responder's stable checkpoint: the application
// snapshot plus the checkpoint digest the group certified. The requester
// adopts a checkpoint once F+1 responders vouch for the same (Seq, Digest)
// and the carried state verifies against the digest.
type StateResponse struct {
	// Seq is the responder's stable checkpoint sequence.
	Seq uint64
	// View is the responder's current view, letting a restarted replica
	// rejoin the active view instead of timing out from view 0.
	View uint64
	// Digest is the checkpoint digest certified by a checkpoint quorum.
	Digest auth.Digest
	// State is the serialized application snapshot at Seq.
	State   []byte
	Replica uint32
}

// ReadRequest asks every replica to execute a side-effect-free operation
// tentatively against its last-executed state, bypassing agreement
// (Castro & Liskov §4.4, the read-only optimization). It shares the
// client's timestamp counter with ordered Requests, so a read that falls
// back to the ordered path keeps a unique timestamp.
type ReadRequest struct {
	Client    uint32
	Timestamp uint64
	Op        []byte
}

// Key identifies a read for timer bookkeeping and tracing, in the same
// namespace as Request keys (timestamps are shared, so keys are unique).
func (r ReadRequest) Key() string { return requestKey(r.Client, r.Timestamp) }

// ReadReply carries a tentative read result. Executed is the replica's
// last-executed sequence number — the state position the read was served
// from. The client accepts a result once 2F+1 replicas report the same
// bytes; the tag is evidence for diagnosing stale replies, not part of
// the matching rule.
type ReadReply struct {
	Timestamp uint64
	Client    uint32
	Replica   uint32
	Executed  uint64
	Result    []byte
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

// Message is the union of all protocol payloads.
type Message interface{ msgType() MsgType }

func (Request) msgType() MsgType       { return MsgRequest }
func (PrePrepare) msgType() MsgType    { return MsgPrePrepare }
func (Prepare) msgType() MsgType       { return MsgPrepare }
func (Commit) msgType() MsgType        { return MsgCommit }
func (Reply) msgType() MsgType         { return MsgReply }
func (Checkpoint) msgType() MsgType    { return MsgCheckpoint }
func (ViewChange) msgType() MsgType    { return MsgViewChange }
func (NewView) msgType() MsgType       { return MsgNewView }
func (StateRequest) msgType() MsgType  { return MsgStateRequest }
func (StateResponse) msgType() MsgType { return MsgStateResponse }
func (ReadRequest) msgType() MsgType   { return MsgReadRequest }
func (ReadReply) msgType() MsgType     { return MsgReadReply }
func (StateManifest) msgType() MsgType { return MsgStateManifest }
func (StatePart) msgType() MsgType     { return MsgStatePart }

// encoder writes the wire format into buf or, in counting mode, only
// adds up its length in n. Running one encoding body once counting and
// once writing sizes the buffer exactly from the code that fills it.
type encoder struct {
	buf   []byte
	n     int
	count bool
}

func (e *encoder) u8(v uint8) {
	if e.count {
		e.n++
		return
	}
	e.buf = append(e.buf, v)
}
func (e *encoder) u32(v uint32) {
	if e.count {
		e.n += 4
		return
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	if e.count {
		e.n += 8
		return
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	if e.count {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}
func (e *encoder) digest(d auth.Digest) {
	if e.count {
		e.n += len(d)
		return
	}
	e.buf = append(e.buf, d[:]...)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("pbft: truncated message")
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// bytes returns the next length-prefixed field as a slice of the input,
// capped so an append by the holder reallocates instead of overwriting
// the following field. Decoders never copy: by the receive-buffer
// ownership contract (docs/ARCHITECTURE.md), a delivered buffer belongs to
// its receiver and no layer mutates received bytes, so every decoded
// field may alias it for as long as the message lives.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.buf) < n || n < 0 {
		d.fail()
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) digest() auth.Digest {
	var out auth.Digest
	if d.err != nil || len(d.buf) < auth.DigestSize {
		d.fail()
		return out
	}
	copy(out[:], d.buf[:auth.DigestSize])
	d.buf = d.buf[auth.DigestSize:]
	return out
}

func encodeRequests(e *encoder, reqs []Request) {
	e.u32(uint32(len(reqs)))
	for _, r := range reqs {
		e.u32(r.Client)
		e.u64(r.Timestamp)
		e.bytes(r.Op)
	}
}

func encodeDigests(e *encoder, ds []auth.Digest) {
	e.u32(uint32(len(ds)))
	for _, d := range ds {
		e.digest(d)
	}
}

func decodeDigests(d *decoder) []auth.Digest {
	n := int(d.u32())
	// Every digest takes DigestSize bytes, so a count the remaining input
	// cannot hold is truncated; failing first keeps a hostile count from
	// sizing the allocation.
	if d.err != nil || n < 0 || n > 1<<20 || n > len(d.buf)/auth.DigestSize {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil // nil round-trips to nil (reflect-equal for tests)
	}
	ds := make([]auth.Digest, 0, n)
	for i := 0; i < n; i++ {
		ds = append(ds, d.digest())
		if d.err != nil {
			return nil
		}
	}
	return ds
}

func decodeRequests(d *decoder) []Request {
	n := int(d.u32())
	// A request takes at least 16 bytes (client, timestamp, op length).
	if d.err != nil || n < 0 || n > 1<<20 || n > len(d.buf)/16 {
		d.fail()
		return nil
	}
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		r := Request{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
		if d.err != nil {
			return nil
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// Encode serializes a protocol message with its type tag into a buffer
// of exactly its length.
func Encode(m Message) []byte {
	e := &encoder{buf: make([]byte, 0, encodedLen(m))}
	encodeMessage(e, m)
	return e.buf
}

// encodedLen returns len(Encode(m)) without encoding; cost models use it
// to price a message.
func encodedLen(m Message) int {
	e := &encoder{count: true}
	encodeMessage(e, m)
	return e.n
}

func encodeMessage(e *encoder, m Message) {
	e.u8(uint8(m.msgType()))
	switch v := m.(type) {
	case Request:
		e.u32(v.Client)
		e.u64(v.Timestamp)
		e.bytes(v.Op)
	case PrePrepare:
		e.u64(v.View)
		e.u64(v.Seq)
		e.digest(v.Digest)
		encodeRequests(e, v.Batch)
	case Prepare:
		e.u64(v.View)
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case Commit:
		e.u64(v.View)
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case Reply:
		e.u64(v.View)
		e.u64(v.Timestamp)
		e.u32(v.Client)
		e.u32(v.Replica)
		e.bytes(v.Result)
	case Checkpoint:
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case ViewChange:
		e.u64(v.NewView)
		e.u64(v.Stable)
		e.u32(uint32(len(v.Prepared)))
		for _, p := range v.Prepared {
			e.u64(p.View)
			e.u64(p.Seq)
			e.digest(p.Digest)
			encodeRequests(e, p.Batch)
		}
		e.u32(v.Replica)
	case NewView:
		e.u64(v.View)
		e.u32(uint32(len(v.PrePrepares)))
		for _, pp := range v.PrePrepares {
			e.u64(pp.View)
			e.u64(pp.Seq)
			e.digest(pp.Digest)
			encodeRequests(e, pp.Batch)
		}
	case StateRequest:
		e.u64(v.Seq)
		e.u32(v.Replica)
		e.digest(v.Root)
		encodeDigests(e, v.Digests)
	case StateManifest:
		e.u64(v.Seq)
		e.u64(v.View)
		e.digest(v.Root)
		e.bytes(v.Header)
		encodeDigests(e, v.Digests)
		e.u32(v.Replica)
	case StatePart:
		e.u64(v.Seq)
		e.u32(v.Part)
		e.bytes(v.Data)
		e.u32(v.Replica)
	case StateResponse:
		e.u64(v.Seq)
		e.u64(v.View)
		e.digest(v.Digest)
		e.bytes(v.State)
		e.u32(v.Replica)
	case ReadRequest:
		e.u32(v.Client)
		e.u64(v.Timestamp)
		e.bytes(v.Op)
	case ReadReply:
		e.u64(v.Timestamp)
		e.u32(v.Client)
		e.u32(v.Replica)
		e.u64(v.Executed)
		e.bytes(v.Result)
	default:
		panic(fmt.Sprintf("pbft: cannot encode %T", m))
	}
}

// Decode parses a serialized protocol message.
func Decode(raw []byte) (Message, error) {
	d := &decoder{buf: raw}
	t := MsgType(d.u8())
	var m Message
	switch t {
	case MsgRequest:
		m = Request{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
	case MsgPrePrepare:
		m = PrePrepare{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Batch: decodeRequests(d)}
	case MsgPrepare:
		m = Prepare{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Replica: d.u32()}
	case MsgCommit:
		m = Commit{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Replica: d.u32()}
	case MsgReply:
		m = Reply{View: d.u64(), Timestamp: d.u64(), Client: d.u32(), Replica: d.u32(), Result: d.bytes()}
	case MsgCheckpoint:
		m = Checkpoint{Seq: d.u64(), Digest: d.digest(), Replica: d.u32()}
	case MsgViewChange:
		vc := ViewChange{NewView: d.u64(), Stable: d.u64()}
		n := int(d.u32())
		if d.err == nil && n >= 0 && n < 1<<20 {
			for i := 0; i < n; i++ {
				vc.Prepared = append(vc.Prepared, PreparedProof{
					View: d.u64(), Seq: d.u64(), Digest: d.digest(), Batch: decodeRequests(d),
				})
			}
		} else {
			d.fail()
		}
		vc.Replica = d.u32()
		m = vc
	case MsgNewView:
		nv := NewView{View: d.u64()}
		n := int(d.u32())
		if d.err == nil && n >= 0 && n < 1<<20 {
			for i := 0; i < n; i++ {
				nv.PrePrepares = append(nv.PrePrepares, PrePrepare{
					View: d.u64(), Seq: d.u64(), Digest: d.digest(), Batch: decodeRequests(d),
				})
			}
		} else {
			d.fail()
		}
		m = nv
	case MsgStateRequest:
		m = StateRequest{Seq: d.u64(), Replica: d.u32(), Root: d.digest(), Digests: decodeDigests(d)}
	case MsgStateManifest:
		m = StateManifest{Seq: d.u64(), View: d.u64(), Root: d.digest(), Header: d.bytes(), Digests: decodeDigests(d), Replica: d.u32()}
	case MsgStatePart:
		m = StatePart{Seq: d.u64(), Part: d.u32(), Data: d.bytes(), Replica: d.u32()}
	case MsgStateResponse:
		m = StateResponse{Seq: d.u64(), View: d.u64(), Digest: d.digest(), State: d.bytes(), Replica: d.u32()}
	case MsgReadRequest:
		m = ReadRequest{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
	case MsgReadReply:
		m = ReadReply{Timestamp: d.u64(), Client: d.u32(), Replica: d.u32(), Executed: d.u64(), Result: d.bytes()}
	default:
		return nil, fmt.Errorf("pbft: unknown message type %d", t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("pbft: %d trailing bytes", len(d.buf))
	}
	return m, nil
}

// BatchDigest computes the digest a pre-prepare commits to.
func BatchDigest(batch []Request) auth.Digest {
	c := &encoder{count: true}
	encodeRequests(c, batch)
	e := &encoder{buf: make([]byte, 0, c.n)}
	encodeRequests(e, batch)
	return auth.Hash(e.buf)
}

// Envelope is the authenticated wrapper for replica-to-replica messages.
type Envelope struct {
	Sender  uint32
	Payload []byte
	Auth    auth.Authenticator
}

// EncodeEnvelope serializes an envelope.
func EncodeEnvelope(env Envelope) []byte {
	c := &encoder{count: true}
	encodeEnvelope(c, env)
	e := &encoder{buf: make([]byte, 0, c.n)}
	encodeEnvelope(e, env)
	return e.buf
}

func encodeEnvelope(e *encoder, env Envelope) {
	e.u32(env.Sender)
	e.bytes(env.Payload)
	e.u32(uint32(len(env.Auth)))
	for _, mac := range env.Auth {
		e.bytes(mac)
	}
}

// DecodeEnvelope parses an envelope.
func DecodeEnvelope(raw []byte) (Envelope, error) {
	d := &decoder{buf: raw}
	env := Envelope{Sender: d.u32(), Payload: d.bytes()}
	n := int(d.u32())
	if d.err == nil && n >= 0 && n < 1<<16 {
		if n > 0 && n <= len(d.buf)/4 {
			env.Auth = make(auth.Authenticator, 0, n)
		}
		for i := 0; i < n; i++ {
			env.Auth = append(env.Auth, d.bytes())
		}
	} else {
		d.fail()
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	if len(d.buf) != 0 {
		return Envelope{}, fmt.Errorf("pbft: %d trailing envelope bytes", len(d.buf))
	}
	return env, nil
}
