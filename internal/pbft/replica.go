package pbft

import (
	"fmt"
	"sort"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/metrics"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Application is the replicated service executed by the agreement layer.
type Application interface {
	// Execute applies one ordered operation and returns its result.
	Execute(op []byte) []byte
	// Snapshot returns a digest of the current state (checkpoints).
	Snapshot() auth.Digest
}

// StateTransferable is the optional application interface enabling PBFT
// state transfer: applications that can serialize and restore their full
// state let a restarted or lagging replica adopt a peer's stable
// checkpoint instead of replaying the whole history. UnmarshalState must
// fully replace the current state, and a restored state must produce the
// same Snapshot digest as the original.
//
// The marshaled state travels in one StateResponse on msgnet's bulk
// class: snapshots larger than the transport's frame limit are chunked
// and reassembled transparently, so state size is bounded only by
// msgnet.Options.MaxTransfer.
type StateTransferable interface {
	MarshalState() []byte
	UnmarshalState(state []byte) error
}

// PartitionedState is the optional application interface enabling
// incremental checkpoints and Merkle partial state transfer (Castro &
// Liskov §6.3, hierarchical state partitions). The application's state is
// split into a fixed number of partitions, each with a stable digest;
// the root digest returned by Snapshot must be recomputable from a
// transfer header plus the partition digests via ComposeRoot.
//
// With this interface a replica retains checkpoints as delta chains (one
// materialized base plus, per later checkpoint, only the partitions
// dirtied since the previous one) and serves state transfer as a subtree
// negotiation: the fetcher advertises its partition digests, the
// responder streams only divergent partitions, and the fetcher verifies
// every partition against the certified root's digest list on arrival.
type PartitionedState interface {
	StateTransferable
	// PartitionCount returns the fixed number of leaf partitions.
	PartitionCount() int
	// PartitionDigests returns the current digest of every partition.
	PartitionDigests() []auth.Digest
	// CheckpointDelta returns the partitions mutated since the
	// application's applied-operation counter read since.
	CheckpointDelta(since uint64) []int
	// Applied returns the applied-operation counter (the clock
	// CheckpointDelta is expressed in).
	Applied() uint64
	// MarshalPartition serializes one partition; auth.Hash of the result
	// must equal its entry in PartitionDigests. The result may be shared
	// with the application: the replica retains it in checkpoint records
	// and never modifies it, and the application must not modify it
	// after returning it.
	MarshalPartition(part int) []byte
	// MarshalHeader serializes the state outside the partitions (e.g.
	// the applied counter and any non-partitioned sections).
	MarshalHeader() []byte
	// ComposeRoot statelessly recomputes the Snapshot root a store with
	// this header and these partition digests would report.
	ComposeRoot(header []byte, digests []auth.Digest) auth.Digest
	// ApplyTransfer atomically replaces the full state from a header
	// plus one serialized partition per index; the state must be
	// unchanged on error.
	ApplyTransfer(header []byte, parts [][]byte) error
}

// TentativeReader is the optional application interface enabling the
// read-only fast path (Castro & Liskov §4.4): applications that can
// evaluate side-effect-free operations without mutating state let a
// replica answer ReadRequests tentatively from its last-executed state,
// bypassing agreement. ExecuteReadOnly must return exactly what Execute
// would return for the same operation and state, and must leave the
// state — including any snapshot digest — byte-identical: replicas serve
// tentative reads at different times, and a read that perturbed state
// would diverge their checkpoints. Applications without this interface
// simply never answer ReadRequests; clients fall back to the ordered
// path on timeout.
type TentativeReader interface {
	ExecuteReadOnly(op []byte) []byte
}

// Config tunes a replica group.
type Config struct {
	// N is the group size; F the tolerated faults. N must be >= 3F+1.
	N, F int
	// BatchSize is the maximum requests per pre-prepare.
	BatchSize int
	// BatchDelay bounds how long the leader waits to fill a batch.
	BatchDelay sim.Time
	// CheckpointEvery takes a checkpoint each K executed sequences.
	CheckpointEvery uint64
	// LogWindow is the high-watermark window above the stable
	// checkpoint within which proposals are accepted.
	LogWindow uint64
	// ViewTimeout is how long a replica waits for a known request to
	// execute before suspecting the leader.
	ViewTimeout sim.Time
	// InitialView lets multi-instance deployments (Reptor's COP) start
	// each instance in a different view so leadership is spread across
	// replicas.
	InitialView uint64
	// FullStateTransfer disables the incremental checkpoint / partial
	// transfer machinery even when the application implements
	// PartitionedState: every checkpoint retains a full serialized
	// snapshot and state transfer ships full StateResponse blobs — the
	// pre-Merkle behavior, kept as the measured baseline of experiment
	// E12. The flag must be uniform across a group: it selects the
	// transfer protocol both sides speak.
	FullStateTransfer bool
}

// DefaultConfig returns a reasonable small-cluster configuration
// tolerating one fault.
func DefaultConfig() Config {
	return Config{
		N:               4,
		F:               1,
		BatchSize:       8,
		BatchDelay:      200 * sim.Microsecond,
		CheckpointEvery: 64,
		LogWindow:       256,
		ViewTimeout:     40 * sim.Millisecond,
	}
}

// Validate checks the quorum arithmetic.
func (c Config) Validate() error {
	if c.N < 3*c.F+1 {
		return fmt.Errorf("pbft: need N >= 3F+1, got N=%d F=%d", c.N, c.F)
	}
	if c.BatchSize < 1 || c.CheckpointEvery < 1 || c.LogWindow < c.CheckpointEvery {
		return fmt.Errorf("pbft: invalid batching/checkpoint config")
	}
	return nil
}

// Quorum returns the 2F+1 agreement quorum size.
func (c Config) Quorum() int { return 2*c.F + 1 }

// Faults injects Byzantine behaviours for testing (zero value = correct).
type Faults struct {
	// Crashed drops all outgoing messages.
	Crashed bool
	// Mute drops outgoing messages of these types.
	Mute map[MsgType]bool
	// EquivocateLeader makes a leader send pre-prepares with corrupted
	// digests to half the backups (detected, triggers view change).
	EquivocateLeader bool
	// CorruptMACs invalidates outgoing authenticators.
	CorruptMACs bool
	// SendDelay postpones every outgoing message by this duration (a
	// slow or deliberately delaying replica).
	SendDelay sim.Time
	// CorruptStateParts flips a byte in every served StatePart payload —
	// a Byzantine responder feeding junk into a partial state transfer
	// (caught by the fetcher's per-partition digest check on arrival).
	CorruptStateParts bool
}

// slot is one sequence number's agreement state.
type slot struct {
	view     uint64
	pp       *PrePrepare
	prepares map[uint32]auth.Digest
	commits  map[uint32]auth.Digest
	sentPrep bool
	sentComm bool
	executed bool
}

func newSlot() *slot {
	return &slot{prepares: make(map[uint32]auth.Digest), commits: make(map[uint32]auth.Digest)}
}

// Replica is one PBFT group member.
type Replica struct {
	id      uint32
	cfg     Config
	node    *fabric.Node
	keyring *auth.Keyring
	app     Application
	faults  Faults

	// peers[i] is the msgnet handle used to send to replica i.
	peers map[uint32]*msgnet.Peer
	// clientConns[c] is where replies to client c go.
	clientConns map[uint32]*msgnet.Peer

	view     uint64
	seqNext  uint64 // next sequence the leader assigns
	log      map[uint64]*slot
	executed uint64
	stable   uint64

	checkpoints map[uint64]map[uint32]auth.Digest
	snapshots   map[uint64]auth.Digest // own checkpoint digests
	states      map[uint64][]byte      // full snapshots per checkpoint (non-partitioned apps)

	// cps retains partitioned-application checkpoints as a delta chain:
	// the oldest retained record is a materialized base holding every
	// partition; each later record holds only the partitions dirtied
	// since the previous retained record. advanceStable folds the chain
	// so retention stays O(state + recent deltas) instead of the old
	// O(retained checkpoints × state).
	cps map[uint64]*cpRecord

	// State transfer: the latest response retained per authenticated
	// sender — bounded by N, so a Byzantine peer streaming responses
	// only ever occupies its own slot. stateTarget is the newest
	// quorum-certified checkpoint we know we are missing; fetch retries
	// stop once execution reaches it.
	stateVotes     map[uint32]StateResponse
	stateFetching  bool
	stateTarget    uint64
	stateRetry     sim.Timer
	stateTransfers uint64

	// Partial-transfer fetch state: one in-progress transfer per
	// authenticated sender (manifest + the divergent partitions received
	// and digest-verified so far). A sender whose manifest or partition
	// fails verification is dropped and banned until the next successful
	// adoption; stateRejects counts every such rejection.
	stateXfers   map[uint32]*stateXfer
	stateBanned  map[uint32]bool
	stateRejects *metrics.Counter

	// Checkpoint cost accounting (reported by E12): every checkpoint's
	// serialized bytes, plus the steady-state subset — checkpoints that
	// were true deltas (or, for non-partitioned apps, any checkpoint
	// after the instance's first). stateBytesServed counts the bytes
	// this replica shipped to fetchers.
	checkpointCount  uint64
	checkpointBytes  uint64
	steadyCpCount    uint64
	steadyCpBytes    uint64
	stateBytesServed uint64

	// stopped marks a crashed process: no sends, no receives, no timers.
	stopped bool

	// Leader batching.
	pending    []Request
	proposed   map[string]bool // request keys already assigned a slot
	batchTimer sim.Timer

	// requestStore remembers every known-but-unexecuted request so a
	// new leader can re-propose work the old leader dropped.
	requestStore map[string]Request

	// Exactly-once reply cache per client.
	replyCache map[uint32]Reply

	// Liveness: per-request timers and view-change state.
	reqTimers    map[string]sim.Timer
	viewChanging bool
	vcVotes      map[uint64]map[uint32]ViewChange

	// Stats and hooks.
	committedCount    uint64
	execBatches       uint64
	readsServed       uint64
	onExecute         func(seq uint64, batch []Request)
	onViewChange      func(newView uint64)
	onCheckpointAdopt func(seq uint64)
	tracer            *obs.Tracer

	// sendFaults counts every surfaced delivery failure on this
	// replica's outbound traffic — nothing is silently discarded.
	sendFaults *metrics.Counter

	// peerIDScratch backs peerIDs so per-broadcast id collection does not
	// allocate; consumers use the slice synchronously.
	peerIDScratch []uint32
}

// NewReplica builds a replica. Connections are attached afterwards with
// AttachPeer / client requests arrive via HandleClientConn.
func NewReplica(id uint32, cfg Config, node *fabric.Node, keyring *auth.Keyring, app Application) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Replica{
		id:           id,
		cfg:          cfg,
		node:         node,
		keyring:      keyring,
		app:          app,
		view:         cfg.InitialView,
		peers:        make(map[uint32]*msgnet.Peer),
		clientConns:  make(map[uint32]*msgnet.Peer),
		log:          make(map[uint64]*slot),
		checkpoints:  make(map[uint64]map[uint32]auth.Digest),
		snapshots:    make(map[uint64]auth.Digest),
		states:       make(map[uint64][]byte),
		cps:          make(map[uint64]*cpRecord),
		stateVotes:   make(map[uint32]StateResponse),
		stateXfers:   make(map[uint32]*stateXfer),
		stateBanned:  make(map[uint32]bool),
		stateRejects: metrics.NewCounter(),
		proposed:     make(map[string]bool),
		replyCache:   make(map[uint32]Reply),
		reqTimers:    make(map[string]sim.Timer),
		vcVotes:      make(map[uint64]map[uint32]ViewChange),
		requestStore: make(map[string]Request),
		sendFaults:   metrics.NewCounter(),
	}, nil
}

// ID returns the replica identifier.
func (r *Replica) ID() uint32 { return r.id }

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Executed returns the last executed sequence number.
func (r *Replica) Executed() uint64 { return r.executed }

// Stable returns the last stable checkpoint sequence.
func (r *Replica) Stable() uint64 { return r.stable }

// LogSize returns the number of live slots (for GC assertions).
func (r *Replica) LogSize() int { return len(r.log) }

// StateTransfers returns the number of completed state transfers.
func (r *Replica) StateTransfers() uint64 { return r.stateTransfers }

// StateRejects returns how many transfer manifests or partitions failed
// digest verification on arrival (each one dropped its sender).
func (r *Replica) StateRejects() uint64 { return r.stateRejects.Value() }

// StateBytesServed returns the serialized state bytes this replica
// shipped to fetching peers (full snapshots or divergent partitions).
func (r *Replica) StateBytesServed() uint64 { return r.stateBytesServed }

// CheckpointStats returns how many checkpoints this replica took and
// their total serialized bytes (the data newly retained and digested per
// checkpoint — for partitioned applications only the dirty partitions).
func (r *Replica) CheckpointStats() (count, bytes uint64) {
	return r.checkpointCount, r.checkpointBytes
}

// CheckpointSteadyStats returns the steady-state subset of
// CheckpointStats: delta checkpoints for partitioned applications, or
// every checkpoint after the instance's first otherwise. This is the
// per-interval cost once the base exists — the number E12 pins sublinear
// in state size.
func (r *Replica) CheckpointSteadyStats() (count, bytes uint64) {
	return r.steadyCpCount, r.steadyCpBytes
}

// RetainedStateBytes returns the serialized state bytes currently held
// for serving state transfer (full snapshots plus delta-chain records).
// The bounded-retention regression test asserts this stays O(state), not
// O(retained checkpoints × state).
func (r *Replica) RetainedStateBytes() uint64 {
	var total uint64
	for _, st := range r.states {
		total += uint64(len(st))
	}
	for _, rec := range r.cps {
		total += uint64(len(rec.header))
		for _, p := range rec.parts {
			total += uint64(len(p))
		}
	}
	return total
}

// cpRecord is one retained checkpoint of a partitioned application. A
// base record materializes every partition; a delta record holds only
// the partitions dirtied since the previous retained record, so serving
// a partition walks the chain newest-first to the base.
type cpRecord struct {
	applied uint64 // the application's applied counter at the checkpoint
	header  []byte
	digests []auth.Digest
	parts   map[int][]byte
	base    bool
}

// stateXfer is one in-progress partial transfer from one sender: the
// self-consistency-verified manifest plus the partitions received and
// digest-verified so far.
type stateXfer struct {
	manifest StateManifest
	parts    map[int][]byte
}

// SetFaults installs fault-injection behaviour.
func (r *Replica) SetFaults(f Faults) { r.faults = f }

// Stop halts the replica permanently: a stopped replica sends nothing,
// ignores all inbound traffic and fires no timers — the process-crash
// model used by the chaos subsystem. Recovery is a fresh Replica plus
// state transfer (see Cluster.Restart), mirroring a real reboot that
// loses all volatile state.
func (r *Replica) Stop() {
	r.stopped = true
	r.batchTimer.Cancel()
	for _, t := range r.reqTimers {
		t.Cancel()
	}
	r.reqTimers = make(map[string]sim.Timer)
	r.stateRetry.Cancel()
}

// OnExecute installs a hook invoked after each executed batch.
func (r *Replica) OnExecute(fn func(seq uint64, batch []Request)) { r.onExecute = fn }

// SetTracer attaches an observability tracer recording the request
// milestones this replica observes (leader receipt, proposal broadcast,
// commit/execute). A nil tracer — the default — costs one pointer test
// per milestone site.
func (r *Replica) SetTracer(t *obs.Tracer) { r.tracer = t }

// OnViewChange installs a hook invoked when a new view is installed.
func (r *Replica) OnViewChange(fn func(uint64)) { r.onViewChange = fn }

// OnCheckpointAdopt installs a hook invoked when a state transfer
// fast-forwards execution to an adopted checkpoint. The sequences up to
// seq were NOT delivered through OnExecute — their batches are folded
// into the adopted application state and their contents are not
// recoverable here. Consumers that derive an order from OnExecute (the
// Reptor executor) must account for the jump or they will wait forever
// for deliveries that can no longer happen.
func (r *Replica) OnCheckpointAdopt(fn func(seq uint64)) { r.onCheckpointAdopt = fn }

// Leader returns the leader replica of a view.
func (r *Replica) Leader(view uint64) uint32 { return uint32(view % uint64(r.cfg.N)) }

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool { return r.Leader(r.view) == r.id }

// AttachPeer wires the outbound msgnet peer to a replica and starts
// consuming inbound messages from it. Asynchronous delivery failures
// (connection death with messages queued) feed the fault counter.
func (r *Replica) AttachPeer(id uint32, p *msgnet.Peer) {
	r.peers[id] = p
	p.OnMessage(func(_ msgnet.Class, raw []byte) { r.handleEnvelope(raw) })
	p.OnSendError(func(error) { r.sendFaults.Inc() })
}

// AttachInbound consumes messages from a peer-initiated connection
// (sender identity travels in the authenticated envelope).
func (r *Replica) AttachInbound(p *msgnet.Peer) {
	p.OnMessage(func(_ msgnet.Class, raw []byte) { r.handleEnvelope(raw) })
}

// HandleClientConn consumes client requests from a client connection.
func (r *Replica) HandleClientConn(p *msgnet.Peer) {
	p.OnSendError(func(error) { r.sendFaults.Inc() })
	p.OnMessage(func(_ msgnet.Class, raw []byte) {
		msg, err := Decode(raw)
		if err != nil {
			return
		}
		switch req := msg.(type) {
		case Request:
			r.clientConns[req.Client] = p
			r.handleRequest(req)
		case ReadRequest:
			r.clientConns[req.Client] = p
			r.handleReadRequest(req)
		}
	})
}

// crypto charges modeled CPU time for cryptographic work.
func (r *Replica) crypto(d sim.Time) { r.node.CPU.Delay(d) }

// deferSend runs fn now, or after the injected SendDelay fault. A delayed
// send re-checks the crash state at fire time: a replica that Stop()s
// while a send is queued must not transmit afterwards.
func (r *Replica) deferSend(fn func()) {
	if r.faults.SendDelay > 0 {
		r.node.Loop().After(r.faults.SendDelay, func() {
			if !r.stopped {
				fn()
			}
		})
		return
	}
	fn()
}

// broadcast authenticates and sends a message to all other replicas.
func (r *Replica) broadcast(m Message) {
	if r.stopped || r.faults.Crashed || (r.faults.Mute != nil && r.faults.Mute[m.msgType()]) {
		return
	}
	payload := Encode(m)
	p := r.node.Network().Params().Crypto
	r.crypto(auth.AuthenticatorCost(p, r.cfg.N, len(payload)))
	a := r.keyring.Authenticate(payload)
	if r.faults.CorruptMACs {
		corruptAuth(a)
	}
	if pp, isPP := m.(PrePrepare); isPP && r.faults.EquivocateLeader {
		r.deferSend(func() { r.equivocate(pp, a) })
		return
	}
	env := EncodeEnvelope(Envelope{Sender: r.id, Payload: payload, Auth: a})
	cls := classFor(m.msgType())
	r.deferSend(func() {
		ids := r.peerIDs()
		// Peers with no live handle (e.g. mid-re-dial after a Restart)
		// are delivery failures too — counted, never silently skipped.
		r.sendFaults.Add(uint64(r.cfg.N - 1 - len(ids)))
		for _, id := range ids {
			if err := r.peers[id].Send(cls, env); err != nil {
				r.sendFaults.Inc()
			}
		}
	})
}

// classFor routes protocol messages onto msgnet traffic classes: bulk
// state transfer — full snapshots, partial-transfer manifests and
// partition payloads — rides ClassBulk so a large transfer cannot
// head-of-line-block the latency-critical agreement messages.
func classFor(t MsgType) msgnet.Class {
	switch t {
	case MsgStateResponse, MsgStateManifest, MsgStatePart:
		return msgnet.ClassBulk
	}
	return msgnet.ClassControl
}

// SendFaults returns the surfaced delivery failures of this replica
// instance (reported by experiments E5/E7).
func (r *Replica) SendFaults() uint64 { return r.sendFaults.Value() }

// peerIDs returns connected peers in ascending order so send order (and
// therefore the simulation) is deterministic. The returned slice aliases a
// per-replica scratch buffer: it is valid only until the next peerIDs call,
// which is fine for the broadcast loops that consume it synchronously.
func (r *Replica) peerIDs() []uint32 {
	ids := r.peerIDScratch[:0]
	for id := uint32(0); id < uint32(r.cfg.N); id++ {
		if id != r.id && r.peers[id] != nil {
			ids = append(ids, id)
		}
	}
	r.peerIDScratch = ids
	return ids
}

// equivocate sends conflicting pre-prepares: correct to low-id backups,
// digest-corrupted to the rest.
func (r *Replica) equivocate(pp PrePrepare, a auth.Authenticator) {
	bad := pp
	bad.Digest[0] ^= 0xFF
	goodEnv := EncodeEnvelope(Envelope{Sender: r.id, Payload: Encode(pp), Auth: a})
	badPayload := Encode(bad)
	badEnv := EncodeEnvelope(Envelope{Sender: r.id, Payload: badPayload, Auth: r.keyring.Authenticate(badPayload)})
	for _, id := range r.peerIDs() {
		env := goodEnv
		if id%2 != 0 {
			env = badEnv
		}
		if err := r.peers[id].Send(msgnet.ClassControl, env); err != nil {
			r.sendFaults.Inc()
		}
	}
}

// send authenticates and sends to one replica.
func (r *Replica) send(to uint32, m Message) {
	if r.stopped || r.faults.Crashed || (r.faults.Mute != nil && r.faults.Mute[m.msgType()]) {
		return
	}
	peer := r.peers[to]
	if peer == nil {
		r.sendFaults.Inc() // no live handle: a delivery failure, not a silent skip
		return
	}
	payload := Encode(m)
	p := r.node.Network().Params().Crypto
	r.crypto(auth.Cost(p, len(payload)))
	a := r.keyring.Authenticate(payload)
	if r.faults.CorruptMACs {
		corruptAuth(a)
	}
	env := EncodeEnvelope(Envelope{Sender: r.id, Payload: payload, Auth: a})
	cls := classFor(m.msgType())
	r.deferSend(func() {
		if err := peer.Send(cls, env); err != nil {
			r.sendFaults.Inc()
		}
	})
}

func corruptAuth(a auth.Authenticator) {
	for _, mac := range a {
		if len(mac) > 0 {
			mac[0] ^= 0xFF
		}
	}
}

// handleEnvelope verifies and dispatches one replica-to-replica message.
func (r *Replica) handleEnvelope(raw []byte) {
	if r.stopped {
		return
	}
	env, err := DecodeEnvelope(raw)
	if err != nil {
		return
	}
	p := r.node.Network().Params().Crypto
	r.crypto(auth.Cost(p, len(env.Payload)))
	if !r.keyring.VerifyFrom(int(env.Sender), env.Payload, env.Auth) {
		return // forged or corrupted: drop (paper III-C: HMACs detect)
	}
	msg, err := Decode(env.Payload)
	if err != nil {
		return
	}
	// Bind claimed identity to the authenticated sender: vote-carrying
	// messages whose in-payload Replica field does not match the MAC'd
	// envelope sender are forgeries (one Byzantine peer spoofing other
	// replicas' votes to fabricate quorums) and are dropped here so no
	// handler ever counts a vote under a spoofed identity.
	if claimed, ok := claimedReplica(msg); ok && claimed != env.Sender {
		return
	}
	switch m := msg.(type) {
	case Request: // forwarded by a backup to the leader
		r.handleRequest(m)
	case PrePrepare:
		r.handlePrePrepare(env.Sender, m)
	case Prepare:
		r.handlePrepare(m)
	case Commit:
		r.handleCommit(m)
	case Checkpoint:
		r.handleCheckpoint(env.Sender, m)
	case ViewChange:
		r.handleViewChange(m)
	case NewView:
		r.handleNewView(env.Sender, m)
	case StateRequest:
		r.handleStateRequest(env.Sender, m)
	case StateResponse:
		r.handleStateResponse(env.Sender, m)
	case StateManifest:
		r.handleStateManifest(env.Sender, m)
	case StatePart:
		r.handleStatePart(env.Sender, m)
	}
}

// claimedReplica extracts the replica identity a message claims to
// originate from, for messages that carry one.
func claimedReplica(m Message) (uint32, bool) {
	switch v := m.(type) {
	case Prepare:
		return v.Replica, true
	case Commit:
		return v.Replica, true
	case Checkpoint:
		return v.Replica, true
	case ViewChange:
		return v.Replica, true
	case StateRequest:
		return v.Replica, true
	case StateResponse:
		return v.Replica, true
	case StateManifest:
		return v.Replica, true
	case StatePart:
		return v.Replica, true
	default:
		return 0, false
	}
}

// ---------------------------------------------------------------------------
// Normal case
// ---------------------------------------------------------------------------

func (r *Replica) handleRequest(req Request) {
	if r.stopped {
		return
	}
	key := req.Key()
	// Exactly-once: answer repeats from the cache.
	if last, ok := r.replyCache[req.Client]; ok && last.Timestamp == req.Timestamp {
		r.reply(req.Client, last)
		return
	}
	if r.proposed[key] {
		return
	}
	if _, known := r.requestStore[key]; !known {
		r.requestStore[key] = req
	}
	// Liveness: watch this request until it executes.
	r.armRequestTimer(key)
	if !r.IsLeader() {
		// Clients broadcast requests to all replicas (see Client), so
		// the leader already has it; backups only watch the timer.
		return
	}
	if r.tracer != nil {
		r.tracer.MarkLeaderRecv(key, r.node.Loop().Now())
	}
	r.pending = append(r.pending, req)
	r.proposed[key] = true
	if len(r.pending) >= r.cfg.BatchSize {
		r.proposeBatch()
		return
	}
	if !r.batchTimer.Pending() {
		r.batchTimer = r.node.Loop().After(r.cfg.BatchDelay, r.proposeBatch)
	}
}

func (r *Replica) armRequestTimer(key string) {
	if _, armed := r.reqTimers[key]; armed {
		return
	}
	r.reqTimers[key] = r.node.Loop().After(r.cfg.ViewTimeout, func() {
		delete(r.reqTimers, key)
		r.startViewChange(r.view + 1)
	})
}

func (r *Replica) cancelRequestTimer(key string) {
	if t, ok := r.reqTimers[key]; ok {
		t.Cancel()
		delete(r.reqTimers, key)
	}
}

// proposeBatch assigns the next sequence number to the pending batch and
// broadcasts the pre-prepare.
func (r *Replica) proposeBatch() {
	if r.stopped || len(r.pending) == 0 || !r.IsLeader() || r.viewChanging {
		return
	}
	if r.seqNext >= r.stable+r.cfg.LogWindow {
		return // watermark window full; retried after the next checkpoint
	}
	n := len(r.pending)
	if n > r.cfg.BatchSize {
		n = r.cfg.BatchSize
	}
	batch := r.pending[:n:n]
	r.pending = r.pending[n:]
	r.seqNext++
	seq := r.seqNext

	params := r.node.Network().Params()
	// Ordering is leader work: validating, bookkeeping and marshalling
	// every request of the batch into the proposal burns leader CPU.
	// The proposal leaves only after the host CPU has actually served
	// that work, so a saturated leader delays its own pipeline — the
	// single-pipeline bottleneck COP spreads across K leaders.
	var order sim.Time
	for _, req := range batch {
		order += params.Protocol.OrderCost(len(req.Op))
	}
	p := params.Crypto
	d := BatchDigest(batch)
	r.crypto(auth.DigestCost(p, encodedLen(PrePrepare{Batch: batch})))

	pp := PrePrepare{View: r.view, Seq: seq, Digest: d, Batch: batch}
	s := r.slotFor(seq)
	s.view = r.view
	s.pp = &pp
	r.node.CPU.Acquire(order, func() {
		// A view change while the proposal was being marshalled makes it
		// stale: the requests stay in requestStore and the new leader
		// re-proposes them.
		if r.stopped || r.viewChanging || r.view != pp.View {
			return
		}
		if r.tracer != nil {
			now := r.node.Loop().Now()
			for _, req := range pp.Batch {
				r.tracer.MarkPropose(req.Key(), now)
			}
		}
		r.broadcast(pp)
		r.tryPrepare(seq)
	})
	if len(r.pending) > 0 {
		r.node.Loop().Post(r.proposeBatch)
	}
}

// ProposeHeartbeat makes a leader propose empty batches for every
// unassigned sequence up to and including upTo — a ranged fill: one call
// covers a contiguous run of holes, and the resulting agreements run
// pipelined (all pre-prepares broadcast back-to-back) instead of one full
// three-phase round per slot. It never proposes past upTo: if proposals at
// or beyond upTo are already in flight the call is a no-op (otherwise
// executors waiting on in-flight commits would mint ever-higher sequence
// numbers and the merge would never converge). Reptor's executor uses this
// to fill holes in the merged global order when an instance is idle.
// It returns the number of slots proposed.
func (r *Replica) ProposeHeartbeat(upTo uint64) int {
	if r.stopped || !r.IsLeader() || r.viewChanging {
		return 0
	}
	proposed := 0
	for r.seqNext < upTo && r.seqNext < r.stable+r.cfg.LogWindow {
		r.seqNext++
		seq := r.seqNext
		pp := PrePrepare{View: r.view, Seq: seq, Digest: BatchDigest(nil)}
		s := r.slotFor(seq)
		s.view = r.view
		s.pp = &pp
		r.broadcast(pp)
		proposed++
	}
	// Prepare after all proposals are out so the fill is one pipelined
	// round of messages rather than interleaved per-slot rounds.
	for i := proposed; i > 0; i-- {
		r.tryPrepare(r.seqNext - uint64(i) + 1)
	}
	return proposed
}

func (r *Replica) slotFor(seq uint64) *slot {
	s := r.log[seq]
	if s == nil {
		s = newSlot()
		r.log[seq] = s
	}
	return s
}

func (r *Replica) handlePrePrepare(sender uint32, pp PrePrepare) {
	if pp.View != r.view || r.viewChanging {
		return
	}
	if sender != r.Leader(pp.View) {
		return // only the view's leader may propose
	}
	if pp.Seq <= r.stable || pp.Seq > r.stable+r.cfg.LogWindow {
		return // outside watermarks
	}
	// Integrity: the digest must match the carried batch (an
	// equivocating leader fails here).
	p := r.node.Network().Params().Crypto
	r.crypto(auth.DigestCost(p, encodedLen(pp)))
	if BatchDigest(pp.Batch) != pp.Digest {
		r.startViewChange(r.view + 1)
		return
	}
	s := r.slotFor(pp.Seq)
	if s.pp != nil && s.pp.Digest != pp.Digest && s.view == pp.View {
		// Conflicting proposal for the same (view, seq): Byzantine
		// leader; demand a view change.
		r.startViewChange(r.view + 1)
		return
	}
	s.view = pp.View
	s.pp = &pp
	for _, req := range pp.Batch {
		r.proposed[req.Key()] = true
		r.requestStore[req.Key()] = req
		r.armRequestTimer(req.Key()) // watch progress even if first seen here
	}
	if !s.sentPrep {
		s.sentPrep = true
		prep := Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.id}
		s.prepares[r.id] = pp.Digest
		r.broadcast(prep)
	}
	r.tryPrepare(pp.Seq)
	r.tryCommit(pp.Seq)
}

func (r *Replica) handlePrepare(m Prepare) {
	if m.View != r.view || r.viewChanging || m.Replica == r.Leader(m.View) {
		return
	}
	if m.Seq <= r.stable || m.Seq > r.stable+r.cfg.LogWindow {
		return
	}
	s := r.slotFor(m.Seq)
	s.prepares[m.Replica] = m.Digest
	r.tryPrepare(m.Seq)
	r.tryCommit(m.Seq)
}

// prepared implements the PBFT predicate: a matching pre-prepare plus 2F
// prepares (from distinct non-leader replicas, possibly including our own).
func (r *Replica) prepared(s *slot) bool {
	if s.pp == nil {
		return false
	}
	count := 0
	for _, d := range s.prepares {
		if d == s.pp.Digest {
			count++
		}
	}
	return count >= 2*r.cfg.F
}

func (r *Replica) tryPrepare(seq uint64) {
	s := r.log[seq]
	if s == nil || s.sentComm || !r.prepared(s) {
		return
	}
	s.sentComm = true
	c := Commit{View: s.pp.View, Seq: seq, Digest: s.pp.Digest, Replica: r.id}
	s.commits[r.id] = s.pp.Digest
	r.broadcast(c)
	r.tryCommit(seq)
}

func (r *Replica) handleCommit(m Commit) {
	if m.View != r.view || r.viewChanging {
		return
	}
	if m.Seq <= r.stable || m.Seq > r.stable+r.cfg.LogWindow {
		return
	}
	s := r.slotFor(m.Seq)
	s.commits[m.Replica] = m.Digest
	r.tryCommit(m.Seq)
}

// committed requires prepared plus a 2F+1 commit quorum.
func (r *Replica) committedSlot(s *slot) bool {
	if s.pp == nil || !r.prepared(s) {
		return false
	}
	count := 0
	for _, d := range s.commits {
		if d == s.pp.Digest {
			count++
		}
	}
	return count >= r.cfg.Quorum()
}

func (r *Replica) tryCommit(seq uint64) {
	s := r.log[seq]
	if s == nil || !r.committedSlot(s) {
		return
	}
	r.tryExecute()
}

// tryExecute applies committed batches strictly in sequence order.
func (r *Replica) tryExecute() {
	for {
		next := r.executed + 1
		s := r.log[next]
		if s == nil || s.executed || !r.committedSlot(s) {
			return
		}
		s.executed = true
		r.executed = next
		r.committedCount++
		r.execBatches++
		proto := r.node.Network().Params().Protocol
		for _, req := range s.pp.Batch {
			if r.tracer != nil {
				r.tracer.MarkCommit(req.Key(), r.node.Loop().Now())
			}
			r.node.CPU.Delay(proto.ExecRequest)
			result := r.app.Execute(req.Op)
			rep := Reply{View: r.view, Timestamp: req.Timestamp, Client: req.Client, Replica: r.id, Result: result}
			r.replyCache[req.Client] = rep
			r.reply(req.Client, rep)
			r.cancelRequestTimer(req.Key())
			delete(r.requestStore, req.Key())
		}
		if r.onExecute != nil {
			r.onExecute(next, s.pp.Batch)
		}
		if r.executed%r.cfg.CheckpointEvery == 0 {
			r.takeCheckpoint(r.executed)
		}
	}
}

// handleReadRequest serves the read-only fast path: evaluate the
// operation tentatively against the last-executed state and report the
// result tagged with the state position it was read from. No agreement
// messages are exchanged — the client is responsible for only accepting
// a result 2F+1 replicas agree on. Applications without TentativeReader
// support never answer; the client's timeout falls the read back to the
// ordered path.
func (r *Replica) handleReadRequest(req ReadRequest) {
	if r.stopped || r.faults.Crashed {
		return
	}
	tr, ok := r.app.(TentativeReader)
	if !ok {
		return
	}
	proto := r.node.Network().Params().Protocol
	r.node.CPU.Delay(proto.ExecRequest)
	result := tr.ExecuteReadOnly(req.Op)
	r.readsServed++
	if r.tracer != nil {
		r.tracer.MarkReadServe(req.Key(), r.node.Loop().Now())
	}
	r.sendToClient(req.Client, Encode(ReadReply{
		Timestamp: req.Timestamp, Client: req.Client, Replica: r.id,
		Executed: r.executed, Result: result,
	}))
}

// ReadsServed returns the number of tentative reads this replica answered.
func (r *Replica) ReadsServed() uint64 { return r.readsServed }

func (r *Replica) reply(client uint32, rep Reply) {
	r.sendToClient(client, Encode(rep))
}

// sendToClient transmits one encoded reply payload to a client
// connection (plain payload — client traffic is unauthenticated; the
// client's reply quorum provides the integrity).
func (r *Replica) sendToClient(client uint32, payload []byte) {
	if r.stopped || r.faults.Crashed {
		return
	}
	peer := r.clientConns[client]
	if peer == nil {
		return
	}
	p := r.node.Network().Params().Crypto
	r.crypto(auth.Cost(p, len(payload)))
	r.deferSend(func() {
		if err := peer.Send(msgnet.ClassControl, payload); err != nil {
			r.sendFaults.Inc()
		}
	})
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

func (r *Replica) takeCheckpoint(seq uint64) {
	d := r.app.Snapshot()
	r.snapshots[seq] = d
	p := r.node.Network().Params().Crypto
	if ps, ok := r.partitioned(); ok {
		// Incremental checkpoint: serialize only the partitions dirtied
		// since the previous retained checkpoint (all of them for the
		// first — the chain's base). The modeled digest cost covers just
		// those bytes, which is what makes the checkpoint pause O(dirty
		// state) instead of O(state).
		rec := &cpRecord{
			applied: ps.Applied(),
			header:  ps.MarshalHeader(),
			digests: ps.PartitionDigests(),
			parts:   make(map[int][]byte),
		}
		var dirty []int
		if prev := r.newestRecordBelow(seq); prev != nil {
			dirty = ps.CheckpointDelta(prev.applied)
		} else {
			rec.base = true
			dirty = make([]int, ps.PartitionCount())
			for i := range dirty {
				dirty[i] = i
			}
		}
		bytes := len(rec.header)
		for _, b := range dirty {
			part := ps.MarshalPartition(b)
			rec.parts[b] = part
			bytes += len(part)
		}
		r.cps[seq] = rec
		r.checkpointCount++
		r.checkpointBytes += uint64(bytes)
		if !rec.base {
			r.steadyCpCount++
			r.steadyCpBytes += uint64(bytes)
		}
		r.crypto(auth.DigestCost(p, bytes))
	} else if st, ok := r.app.(StateTransferable); ok {
		// Retain the full serialized state so lagging peers can fetch it.
		state := st.MarshalState()
		r.states[seq] = state
		if r.checkpointCount > 0 {
			r.steadyCpCount++
			r.steadyCpBytes += uint64(len(state))
		}
		r.checkpointCount++
		r.checkpointBytes += uint64(len(state))
		r.crypto(auth.DigestCost(p, len(state)))
	}
	cp := Checkpoint{Seq: seq, Digest: d, Replica: r.id}
	r.recordCheckpoint(r.id, cp)
	r.broadcast(cp)
}

// partitioned returns the application's PartitionedState interface when
// the incremental/partial machinery is enabled (it is not when
// Config.FullStateTransfer forces the legacy full-snapshot baseline).
func (r *Replica) partitioned() (PartitionedState, bool) {
	if r.cfg.FullStateTransfer {
		return nil, false
	}
	ps, ok := r.app.(PartitionedState)
	return ps, ok
}

// newestRecordBelow returns the newest retained checkpoint record older
// than seq (nil if none) — the delta base for a checkpoint at seq.
func (r *Replica) newestRecordBelow(seq uint64) *cpRecord {
	var bestSeq uint64
	var best *cpRecord
	for s, rec := range r.cps {
		if s < seq && s >= bestSeq {
			bestSeq, best = s, rec
		}
	}
	return best
}

func (r *Replica) handleCheckpoint(sender uint32, m Checkpoint) {
	r.recordCheckpoint(sender, m)
}

func (r *Replica) recordCheckpoint(sender uint32, m Checkpoint) {
	if m.Seq <= r.stable {
		return
	}
	set := r.checkpoints[m.Seq]
	if set == nil {
		set = make(map[uint32]auth.Digest)
		r.checkpoints[m.Seq] = set
	}
	// Key votes by the envelope-verified sender: the in-payload Replica
	// field is unauthenticated, and a checkpoint certificate assembled
	// from forged identities would let one Byzantine peer authorize a
	// state transfer of attacker-chosen state (tryAdoptState path 2).
	set[sender] = m.Digest
	// Count matching digests.
	counts := make(map[auth.Digest]int)
	for _, d := range set {
		counts[d]++
	}
	for d, c := range counts {
		if c >= r.cfg.Quorum() && r.snapshots[m.Seq] == d {
			r.advanceStable(m.Seq)
			return
		}
		if c >= r.cfg.F+1 && m.Seq >= r.executed+r.cfg.CheckpointEvery {
			// F+1 matching votes mean at least one correct replica
			// executed through m.Seq — at least one full interval beyond
			// our execution point: we missed commits (restarted,
			// partitioned, or far behind) and will not catch up from our
			// own log. Fetch the state instead of stalling. Waiting for a
			// full 2F+1 certificate here deadlocks when F+1 replicas lag
			// together (the laggards withhold exactly the votes the
			// certificate needs); F+1 is safe because adoption
			// independently verifies the fetched state against F+1
			// matching responses or a full certificate. A replica less
			// than one interval behind is still executing from its own
			// log and needs no transfer.
			if m.Seq > r.stateTarget {
				r.stateTarget = m.Seq
			}
			// A state response for this very checkpoint may already be
			// waiting for exactly this evidence.
			if r.tryAdoptState() {
				return
			}
			r.requestStateTransfer()
			return
		}
	}
}

// advanceStable garbage-collects the log below the new stable checkpoint.
func (r *Replica) advanceStable(seq uint64) {
	if seq <= r.stable {
		return
	}
	r.stable = seq
	for s := range r.log {
		if s <= seq {
			delete(r.log, s)
		}
	}
	for s := range r.checkpoints {
		if s <= seq {
			delete(r.checkpoints, s)
		}
	}
	for s := range r.snapshots {
		if s < seq {
			delete(r.snapshots, s)
		}
	}
	for s := range r.states {
		if s < seq {
			delete(r.states, s)
		}
	}
	r.foldCheckpoints(seq)
	// State responses at or below the new stable point can never be
	// adopted (adoption requires seq > executed >= stable).
	for id, resp := range r.stateVotes {
		if resp.Seq <= seq {
			delete(r.stateVotes, id)
		}
	}
	for id, x := range r.stateXfers {
		if x.manifest.Seq <= seq {
			delete(r.stateXfers, id)
		}
	}
	if r.IsLeader() && len(r.pending) > 0 {
		r.node.Loop().Post(r.proposeBatch)
	}
}

// foldCheckpoints collapses the delta chain at and below the new stable
// checkpoint into one materialized base record at stable, dropping the
// older records. This bounds retention at one base plus the deltas above
// stable — the fix for the old O(retained checkpoints × state) memory
// amplification.
func (r *Replica) foldCheckpoints(stable uint64) {
	target := r.cps[stable]
	if target == nil {
		// Not a partitioned checkpoint chain (or no record at stable —
		// possible only for non-partitioned apps); just prune old records.
		for s := range r.cps {
			if s < stable {
				delete(r.cps, s)
			}
		}
		return
	}
	if !target.base {
		// Overlay every record up to stable in ascending order: the
		// oldest retained record is always a base, so the merge holds
		// every partition.
		var seqs []uint64
		for s := range r.cps {
			if s <= stable {
				seqs = append(seqs, s)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		merged := make(map[int][]byte)
		for _, s := range seqs {
			for part, data := range r.cps[s].parts {
				merged[part] = data
			}
		}
		target.parts = merged
		target.base = true
	}
	for s := range r.cps {
		if s < stable {
			delete(r.cps, s)
		}
	}
}

// cpPart materializes one partition of a retained checkpoint by walking
// the delta chain newest-first down to the base.
func (r *Replica) cpPart(seq uint64, part int) []byte {
	var seqs []uint64
	for s := range r.cps {
		if s <= seq {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, s := range seqs {
		if data, ok := r.cps[s].parts[part]; ok {
			return data
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// State transfer (Castro & Liskov §4.6)
//
// A replica that detects the group has certified a checkpoint beyond its
// own execution point — because it just restarted with empty state, was
// partitioned away, or simply fell behind — asks its peers for their
// latest stable checkpoint. It adopts a checkpoint once F+1 replicas vouch
// for the same (sequence, digest) pair (at least one of them is correct)
// and a carried snapshot actually re-hashes to the certified digest.
// ---------------------------------------------------------------------------

// RequestStateTransfer probes peers for their latest stable checkpoint
// (used by Cluster.Restart for a rebooted replica). It is a no-op if the
// application cannot transfer state or a fetch is already in flight.
// Retries only persist while a certified checkpoint beyond our execution
// point is actually known to exist (stateTarget, maintained by
// recordCheckpoint): if no peer has anything to serve — the group has no
// stable checkpoint yet — the probe goes unanswered once and the replica
// stays quiet until live checkpoint certificates reveal a gap, keeping
// an idle simulation drainable.
func (r *Replica) RequestStateTransfer() { r.requestStateTransfer() }

func (r *Replica) requestStateTransfer() {
	if r.stopped || r.stateFetching {
		return
	}
	if _, ok := r.app.(StateTransferable); !ok {
		return
	}
	r.stateFetching = true
	req := StateRequest{Seq: r.executed, Replica: r.id}
	if ps, ok := r.partitioned(); ok {
		// Advertise our Merkle position so responders ship only the
		// divergent partitions. Snapshot and the digest list come from
		// per-partition caches, so this is cheap for a mostly-clean
		// store.
		req.Root = r.app.Snapshot()
		req.Digests = ps.PartitionDigests()
	}
	r.broadcast(req)
	// If no adoptable quorum of responses arrives, ask again — unless we
	// caught up through normal execution in the meantime. Retrying is
	// warranted while either a certified checkpoint is known to be
	// missing or peers demonstrably hold state ahead of us (responses
	// collected but not yet adoptable, e.g. transiently scattered stable
	// points); with neither, the probe goes quiet so an idle simulation
	// drains.
	r.stateRetry = r.node.Loop().After(r.cfg.ViewTimeout, func() {
		if r.stopped || !r.stateFetching {
			return
		}
		r.stateFetching = false
		if r.executed < r.stateTarget || r.peersAhead() {
			r.requestStateTransfer()
		}
	})
}

// peersAhead reports whether any collected state response or transfer
// manifest is beyond our execution point.
func (r *Replica) peersAhead() bool {
	for _, resp := range r.stateVotes {
		if resp.Seq > r.executed {
			return true
		}
	}
	for _, x := range r.stateXfers {
		if x.manifest.Seq > r.executed {
			return true
		}
	}
	return false
}

func (r *Replica) handleStateRequest(sender uint32, m StateRequest) {
	// Serve the newest retained checkpoint beyond the requester's
	// execution point — not only the stable one. When F+1 replicas lag
	// together the group cannot certify any new stable checkpoint (the
	// certificate needs the laggards' own votes), yet the laggards can
	// still safely adopt a newer checkpoint: adoption demands F+1
	// responders vouching for the same (seq, digest), so one correct
	// responder is always among them.
	var best uint64
	for seq := range r.states {
		if seq > m.Seq && seq > best {
			best = seq
		}
	}
	for seq := range r.cps {
		if seq > m.Seq && seq > best {
			best = seq
		}
	}
	if best == 0 {
		return // the requester is at least as current as anything we hold
	}
	// Reply to the authenticated sender, not the claimed Replica field.
	if rec, ok := r.cps[best]; ok && len(m.Digests) == len(rec.digests) {
		// Subtree negotiation: open with the manifest, then stream only
		// the partitions whose digests diverge from the requester's.
		r.send(sender, StateManifest{
			Seq: best, View: r.view, Root: r.snapshots[best],
			Header: rec.header, Digests: rec.digests, Replica: r.id,
		})
		for i, d := range rec.digests {
			if m.Digests[i] == d {
				continue
			}
			data := r.cpPart(best, i)
			if r.faults.CorruptStateParts {
				bad := make([]byte, len(data))
				copy(bad, data)
				if len(bad) > 0 {
					bad[len(bad)-1] ^= 0xFF
				}
				data = bad
			}
			r.stateBytesServed += uint64(len(data))
			r.send(sender, StatePart{Seq: best, Part: uint32(i), Data: data, Replica: r.id})
		}
		return
	}
	state, ok := r.states[best]
	if !ok {
		// We hold only a partitioned record but the requester cannot
		// speak the partial protocol (no digest list / different
		// partition count): nothing servable — another peer (or a later
		// retained full snapshot) will answer.
		return
	}
	r.stateBytesServed += uint64(len(state))
	r.send(sender, StateResponse{
		Seq: best, View: r.view, Digest: r.snapshots[best],
		State: state, Replica: r.id,
	})
}

// handleStateManifest verifies and stores a partial-transfer manifest.
// Self-consistency — the root must be recomputable from the header and
// digest list — is checked before anything else, so every later
// per-partition check is anchored in a root that adoption will verify
// against F+1 matching manifests or a checkpoint certificate.
func (r *Replica) handleStateManifest(sender uint32, m StateManifest) {
	ps, ok := r.partitioned()
	if !ok || m.Seq <= r.executed || r.stateBanned[sender] {
		return
	}
	if len(m.Digests) != ps.PartitionCount() || ps.ComposeRoot(m.Header, m.Digests) != m.Root {
		r.rejectStateSender(sender)
		return
	}
	prev, held := r.stateXfers[sender]
	if held && prev.manifest.Seq > m.Seq {
		return // keep the newer transfer
	}
	r.stateXfers[sender] = &stateXfer{manifest: m, parts: make(map[int][]byte)}
	r.tryAdoptState()
}

// handleStatePart verifies one received partition against its manifest's
// digest on arrival. The first mismatch drops the sender: a Byzantine
// peer can no longer feed junk bytes that are detected only after the
// whole state downloaded.
func (r *Replica) handleStatePart(sender uint32, m StatePart) {
	ps, ok := r.partitioned()
	if !ok || r.stateBanned[sender] {
		return
	}
	x, held := r.stateXfers[sender]
	if !held || x.manifest.Seq != m.Seq {
		return // no matching manifest (e.g. already pruned): ignore
	}
	part := int(m.Part)
	if part < 0 || part >= ps.PartitionCount() {
		r.rejectStateSender(sender)
		return
	}
	p := r.node.Network().Params().Crypto
	r.crypto(auth.DigestCost(p, len(m.Data)))
	if auth.Hash(m.Data) != x.manifest.Digests[part] {
		r.rejectStateSender(sender)
		return
	}
	x.parts[part] = m.Data
	r.tryAdoptState()
}

// rejectStateSender drops a sender's in-progress transfer after a failed
// verification and bans it until the next successful adoption.
func (r *Replica) rejectStateSender(sender uint32) {
	r.stateRejects.Inc()
	delete(r.stateXfers, sender)
	r.stateBanned[sender] = true
}

func (r *Replica) handleStateResponse(sender uint32, m StateResponse) {
	if _, ok := r.app.(StateTransferable); !ok || m.Seq <= r.executed {
		return
	}
	// Retain the newest response per authenticated sender. Keying by the
	// envelope-verified sender (the in-payload Replica field is
	// unauthenticated) both prevents one Byzantine peer from forging an
	// F+1 quorum of "distinct" responders and bounds the store at one
	// snapshot per peer no matter how many responses it streams.
	if prev, held := r.stateVotes[sender]; !held || m.Seq >= prev.Seq {
		r.stateVotes[sender] = m
	}
	r.tryAdoptState()
}

// tryAdoptState adopts a stored state response if one is certified,
// reporting success. Two certification paths:
//
//  1. F+1 responders vouch for the same (seq, digest) — at least one of
//     them is correct.
//  2. A single response matches a checkpoint-quorum certificate this
//     replica assembled from the group's normal CHECKPOINT broadcasts
//     (2F+1 matching digests in r.checkpoints[seq]). This is how a
//     replica catches up while the group keeps executing at full speed:
//     peers' stable checkpoints advance so quickly that F+1 identical
//     responses may never accumulate, but certificates keep arriving.
func (r *Replica) tryAdoptState() bool {
	if ps, ok := r.partitioned(); ok && r.tryAdoptPartitioned(ps) {
		return true
	}
	st, ok := r.app.(StateTransferable)
	if !ok || len(r.stateVotes) == 0 {
		return false
	}
	type group struct {
		seq    uint64
		digest auth.Digest
	}
	tried := make(map[group]bool)
	// Scan responses in replica order for determinism, one verification
	// attempt per distinct (seq, digest) group.
	for id := uint32(0); id < uint32(r.cfg.N); id++ {
		resp, held := r.stateVotes[id]
		if !held || resp.Seq <= r.executed {
			continue
		}
		g := group{resp.Seq, resp.Digest}
		if tried[g] {
			continue
		}
		tried[g] = true
		var matching []StateResponse
		for j := uint32(0); j < uint32(r.cfg.N); j++ {
			if other, held := r.stateVotes[j]; held && other.Seq == resp.Seq && other.Digest == resp.Digest {
				matching = append(matching, other)
			}
		}
		certVotes := 0
		for _, d := range r.checkpoints[resp.Seq] {
			if d == resp.Digest {
				certVotes++
			}
		}
		if len(matching) < r.cfg.F+1 && certVotes < r.cfg.Quorum() {
			continue
		}
		// Certified. A Byzantine responder may still have attached
		// bogus state bytes under the right digest, so restore copies
		// until one re-hashes to the certified digest — and put the
		// previous state back if none does, since UnmarshalState
		// mutates the live application.
		prev := st.MarshalState()
		p := r.node.Network().Params().Crypto
		for _, cand := range matching {
			if err := st.UnmarshalState(cand.State); err != nil {
				continue
			}
			r.crypto(auth.DigestCost(p, len(cand.State)))
			if r.app.Snapshot() == resp.Digest {
				// The View field is only corroborated when F+1
				// responders agree; a lone certificate-backed response
				// could carry an inflated view that would wedge us.
				view := r.view
				if len(matching) >= r.cfg.F+1 {
					view = minResponseView(matching)
				}
				// Retain the adopted snapshot so this replica can serve
				// lagging peers in turn.
				stateCopy := make([]byte, len(cand.State))
				copy(stateCopy, cand.State)
				r.states[resp.Seq] = stateCopy
				r.adoptCheckpoint(resp.Seq, resp.Digest, view)
				return true
			}
		}
		if err := st.UnmarshalState(prev); err != nil {
			panic(fmt.Sprintf("pbft: replica %d failed to restore state after rejected transfer: %v", r.id, err))
		}
	}
	return false
}

// tryAdoptPartitioned adopts a partially-transferred checkpoint if one
// is certified and complete. Certification mirrors the full-snapshot
// path — F+1 senders vouching for the same (seq, root) or a single
// manifest matching a checkpoint-quorum certificate — but the state
// arrives as partitions that were each digest-verified on receipt, and
// partitions already matching locally are reused without any transfer.
func (r *Replica) tryAdoptPartitioned(ps PartitionedState) bool {
	if len(r.stateXfers) == 0 {
		return false
	}
	type group struct {
		seq  uint64
		root auth.Digest
	}
	tried := make(map[group]bool)
	// Scan transfers in replica order for determinism, one adoption
	// attempt per distinct (seq, root) group.
	for id := uint32(0); id < uint32(r.cfg.N); id++ {
		x, held := r.stateXfers[id]
		if !held || x.manifest.Seq <= r.executed {
			continue
		}
		g := group{x.manifest.Seq, x.manifest.Root}
		if tried[g] {
			continue
		}
		tried[g] = true
		var matching []*stateXfer
		var senders []uint32
		for j := uint32(0); j < uint32(r.cfg.N); j++ {
			if other, held := r.stateXfers[j]; held && other.manifest.Seq == g.seq && other.manifest.Root == g.root {
				matching = append(matching, other)
				senders = append(senders, j)
			}
		}
		certVotes := 0
		for _, d := range r.checkpoints[g.seq] {
			if d == g.root {
				certVotes++
			}
		}
		if len(matching) < r.cfg.F+1 && certVotes < r.cfg.Quorum() {
			continue
		}
		// Certified root. Assemble the full partition set: local
		// partitions whose digests already match the manifest are reused
		// as-is; the divergent ones must have arrived (from any matching
		// sender — parts are interchangeable once verified against the
		// same digest list).
		manifest := matching[0].manifest
		local := ps.PartitionDigests()
		parts := make([][]byte, ps.PartitionCount())
		reuse := func(i int) bool { return i < len(local) && local[i] == manifest.Digests[i] }
		complete := true
		for i := range parts {
			if reuse(i) {
				continue
			}
			for _, cand := range matching {
				if data, ok := cand.parts[i]; ok {
					parts[i] = data
					break
				}
			}
			if parts[i] == nil {
				complete = false
				break
			}
		}
		if !complete {
			continue // divergent partitions still streaming in
		}
		// Marshal the reused partitions only once the set is complete:
		// this runs on every arriving part, and copying every matching
		// partition each time made a transfer quadratic in real time.
		for i := range parts {
			if reuse(i) {
				parts[i] = ps.MarshalPartition(i)
			}
		}
		prev := ps.MarshalState()
		if err := ps.ApplyTransfer(manifest.Header, parts); err != nil {
			// Digest-verified partitions under a certified root that
			// still fail to decode: the vouching senders colluded on a
			// malformed encoding. Drop them and keep fetching.
			for _, s := range senders {
				r.rejectStateSender(s)
			}
			continue
		}
		if r.app.Snapshot() != g.root {
			// Defense in depth (the composition rules make this
			// unreachable for a conforming application): roll back.
			if err := ps.UnmarshalState(prev); err != nil {
				panic(fmt.Sprintf("pbft: replica %d failed to restore state after rejected transfer: %v", r.id, err))
			}
			for _, s := range senders {
				r.rejectStateSender(s)
			}
			continue
		}
		view := r.view
		if len(matching) >= r.cfg.F+1 {
			view = minManifestView(matching)
		}
		// Retain the adopted checkpoint as a fresh base record so this
		// replica can serve lagging peers in turn.
		rec := &cpRecord{
			applied: ps.Applied(),
			header:  manifest.Header,
			digests: manifest.Digests,
			parts:   make(map[int][]byte, len(parts)),
			base:    true,
		}
		for i, data := range parts {
			rec.parts[i] = data
		}
		r.cps[g.seq] = rec
		r.adoptCheckpoint(g.seq, g.root, view)
		return true
	}
	return false
}

// minManifestView returns the smallest view among matching transfer
// manifests (same conservatism as minResponseView).
func minManifestView(matching []*stateXfer) uint64 {
	min := matching[0].manifest.View
	for _, x := range matching[1:] {
		if x.manifest.View < min {
			min = x.manifest.View
		}
	}
	return min
}

// minResponseView returns the smallest view among matching responders:
// adopting the minimum is conservative (at most as new as some correct
// replica's view); a stale view only costs extra view-change latency.
func minResponseView(matching []StateResponse) uint64 {
	min := matching[0].View
	for _, resp := range matching[1:] {
		if resp.View < min {
			min = resp.View
		}
	}
	return min
}

// adoptCheckpoint installs a fetched stable checkpoint: the application
// state is already restored and the caller retained the serving copy
// (full snapshot or base delta-chain record); fast-forward the agreement
// bookkeeping.
func (r *Replica) adoptCheckpoint(seq uint64, d auth.Digest, view uint64) {
	r.executed = seq
	if r.seqNext < seq {
		r.seqNext = seq
	}
	r.snapshots[seq] = d
	// Advertise the adopted checkpoint. When several replicas lagged
	// together, the group's stable checkpoint stalled precisely because
	// the laggards' votes were missing — this vote (plus the peers who
	// already voted) completes the certificate so everyone's watermark
	// window can move again.
	cp := Checkpoint{Seq: seq, Digest: d, Replica: r.id}
	r.recordCheckpoint(r.id, cp)
	r.broadcast(cp)
	if view > r.view {
		r.view = view
		// Observers track the current leader through this hook on
		// every other view-installation path; a recovered replica's
		// jump must be visible too.
		if r.onViewChange != nil {
			r.onViewChange(view)
		}
	}
	// The checkpoint subsumes every request ordered below it, but we
	// cannot tell which of the requests we are watching those are: drop
	// all request bookkeeping and let live traffic re-arm. Leaving the
	// timers armed would fire view-change demands for long-committed
	// requests and wedge the replica in viewChanging — blocking the very
	// catch-up the transfer enables.
	r.pending = nil
	r.proposed = make(map[string]bool)
	r.requestStore = make(map[string]Request)
	for key, t := range r.reqTimers {
		t.Cancel()
		delete(r.reqTimers, key)
	}
	// Any view change we demanded was based on pre-transfer lag; rejoin
	// the group's current view instead of staying wedged. If a genuine
	// view change is in progress, its NEW-VIEW will reach us normally.
	r.viewChanging = false
	for view := range r.vcVotes {
		if view <= r.view {
			delete(r.vcVotes, view)
		}
	}
	r.advanceStable(seq) // also prunes stateVotes/stateXfers at or below seq
	r.stateFetching = false
	r.stateRetry.Cancel()
	// A fresh transfer round starts from a clean slate: peers rejected
	// for corrupt parts in this round get another chance next time (the
	// reject counter keeps the permanent record).
	r.stateBanned = make(map[uint32]bool)
	r.stateTransfers++
	if r.onCheckpointAdopt != nil {
		r.onCheckpointAdopt(seq)
	}
	// Commits above the checkpoint may already be quorate in the log.
	r.tryExecute()
	// An older certified checkpoint can win the adoption scan while a
	// newer one is still known to be missing; keep fetching until
	// execution reaches the target instead of going quiet here.
	if r.executed < r.stateTarget {
		r.requestStateTransfer()
	}
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

func (r *Replica) startViewChange(newView uint64) {
	if r.stopped || newView <= r.view || (r.viewChanging && newView <= r.pendingView()) {
		return
	}
	r.viewChanging = true
	// Cancel batch work; collect prepared proofs above the stable point.
	r.batchTimer.Cancel()
	var proofs []PreparedProof
	for seq, s := range r.log {
		if s.pp != nil && r.prepared(s) && !s.executed {
			proofs = append(proofs, PreparedProof{View: s.pp.View, Seq: seq, Digest: s.pp.Digest, Batch: s.pp.Batch})
		}
	}
	vc := ViewChange{NewView: newView, Stable: r.stable, Prepared: proofs, Replica: r.id}
	r.recordViewChange(vc)
	r.broadcast(vc)
	// If the new leader's NEW-VIEW never arrives, escalate further.
	r.node.Loop().After(r.cfg.ViewTimeout, func() {
		if r.viewChanging && r.view < newView {
			r.startViewChange(newView + 1)
		}
	})
}

func (r *Replica) pendingView() uint64 {
	var max uint64
	for v := range r.vcVotes {
		if _, voted := r.vcVotes[v][r.id]; voted && v > max {
			max = v
		}
	}
	return max
}

func (r *Replica) handleViewChange(m ViewChange) {
	if m.NewView <= r.view {
		return
	}
	r.recordViewChange(m)
	votes := r.vcVotes[m.NewView]
	// Join an in-progress view change once F+1 replicas demand it (we
	// cannot all be faulty).
	if len(votes) >= r.cfg.F+1 {
		r.startViewChange(m.NewView)
	}
	if r.Leader(m.NewView) == r.id && len(votes) >= r.cfg.Quorum() {
		r.installNewView(m.NewView)
	}
}

func (r *Replica) recordViewChange(m ViewChange) {
	set := r.vcVotes[m.NewView]
	if set == nil {
		set = make(map[uint32]ViewChange)
		r.vcVotes[m.NewView] = set
	}
	set[m.Replica] = m
}

// installNewView (new leader): re-propose every prepared slot reported by
// the view-change quorum, filling gaps with empty batches.
func (r *Replica) installNewView(v uint64) {
	votes := r.vcVotes[v]
	maxStable := r.stable
	best := make(map[uint64]PreparedProof)
	var maxSeq uint64
	for _, vc := range votes {
		if vc.Stable > maxStable {
			maxStable = vc.Stable
		}
		for _, p := range vc.Prepared {
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
	}
	var pps []PrePrepare
	for seq := maxStable + 1; seq <= maxSeq; seq++ {
		if p, ok := best[seq]; ok {
			pps = append(pps, PrePrepare{View: v, Seq: seq, Digest: p.Digest, Batch: p.Batch})
		} else {
			pps = append(pps, PrePrepare{View: v, Seq: seq, Digest: BatchDigest(nil)})
		}
	}
	nv := NewView{View: v, PrePrepares: pps}
	r.broadcast(nv)
	r.adoptNewView(v, nv)
}

func (r *Replica) handleNewView(sender uint32, nv NewView) {
	if nv.View <= r.view || sender != r.Leader(nv.View) {
		return
	}
	r.adoptNewView(nv.View, nv)
}

// adoptNewView installs the view and replays the re-proposed slots.
func (r *Replica) adoptNewView(v uint64, nv NewView) {
	r.view = v
	r.viewChanging = false
	for view := range r.vcVotes {
		if view <= v {
			delete(r.vcVotes, view)
		}
	}
	// Reset per-slot voting state for re-proposed slots.
	var maxSeq uint64
	for _, pp := range nv.PrePrepares {
		pp := pp
		if pp.Seq <= r.executed {
			continue // already executed here; state transfer not needed
		}
		s := newSlot()
		s.view = v
		s.pp = &pp
		r.log[pp.Seq] = s
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		if r.Leader(v) != r.id {
			s.sentPrep = true
			s.prepares[r.id] = pp.Digest
			r.broadcast(Prepare{View: v, Seq: pp.Seq, Digest: pp.Digest, Replica: r.id})
		}
	}
	// seqNext is the proposal frontier of the NEW view: the highest
	// re-proposed or executed sequence. It may move DOWN — a sequence the
	// old view claimed for a proposal that never went out (e.g. the
	// ordering-CPU completion observed the view change and aborted the
	// broadcast) would otherwise stay stranded: nothing re-proposes it,
	// and a later proposal above it could never execute past the hole.
	r.seqNext = maxSeq
	if r.seqNext < r.executed {
		r.seqNext = r.executed
	}
	// The new view will reuse sequences above the frontier, but the old
	// view may have left slots there (a received pre-prepare sets
	// sentPrep and records votes that are not view-tagged). Reusing such
	// a slot would suppress the new view's PREPARE/COMMIT broadcasts and
	// count stale cross-view votes, so unexecuted slots beyond the
	// frontier are dropped — their requests live on in requestStore.
	for seq, s := range r.log {
		if seq > r.seqNext && !s.executed {
			delete(r.log, seq)
		}
	}
	// Rebuild proposal bookkeeping: only the re-proposed slots count as
	// in flight; everything else known-but-unexecuted goes back to the
	// new leader's queue.
	r.pending = nil
	r.proposed = make(map[string]bool)
	for _, pp := range nv.PrePrepares {
		for _, req := range pp.Batch {
			r.proposed[req.Key()] = true
		}
	}
	for _, key := range r.storedKeys() {
		r.armRequestTimer(key)
		if r.IsLeader() && !r.proposed[key] {
			r.pending = append(r.pending, r.requestStore[key])
			r.proposed[key] = true
		}
	}
	if r.onViewChange != nil {
		r.onViewChange(v)
	}
	if r.IsLeader() && len(r.pending) > 0 {
		r.node.Loop().Post(r.proposeBatch)
	}
	for _, pp := range nv.PrePrepares {
		r.tryPrepare(pp.Seq)
		r.tryCommit(pp.Seq)
	}
}

// storedKeys returns requestStore keys in sorted order for deterministic
// re-proposal.
func (r *Replica) storedKeys() []string {
	keys := make([]string, 0, len(r.requestStore))
	for k := range r.requestStore {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
