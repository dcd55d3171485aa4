// Package fabric simulates the physical cluster: hosts with CPU and NIC
// resources connected by full-duplex point-to-point links.
//
// The fabric is deliberately protocol-agnostic: it serializes opaque
// payloads onto a link direction (FIFO, so delivery is in order per
// direction), applies propagation delay, and hands frames to the protocol
// handler registered at the destination node. The TCP and RDMA stacks on
// top charge their own CPU/NIC costs before and after using the wire, which
// keeps the comparison between stacks honest: both see the same link.
//
// Links additionally carry the per-link fault state the chaos subsystem
// drives (LinkFaults: loss, added latency, jitter, down). A downed link
// holds frames and releases them in their original order on heal — a
// partition is modeled as an unbounded message delay, never as loss — so
// the loss-free simulated transports survive partition/heal cycles intact.
package fabric

import (
	"fmt"

	"rubin/internal/model"
	"rubin/internal/sim"
)

// Protocol identifies which stack a frame belongs to; nodes register one
// handler per protocol.
type Protocol uint8

// Protocols multiplexed over the fabric.
const (
	ProtoTCP Protocol = iota + 1
	ProtoRDMA
)

func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoRDMA:
		return "rdma"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Handler receives frames delivered to a node.
type Handler func(from *Node, payload any, wireBytes int)

// DropFunc inspects a frame about to enter a link direction and reports
// whether to drop it (fault injection). A nil DropFunc drops nothing.
type DropFunc func(from, to *Node, payload any, wireBytes int) bool

// Network is a set of nodes and links sharing one simulation loop and one
// parameter set.
type Network struct {
	loop   *sim.Loop
	params model.Params
	nodes  map[string]*Node
}

// New creates an empty network on the given loop.
func New(loop *sim.Loop, params model.Params) *Network {
	return &Network{
		loop:   loop,
		params: params,
		nodes:  make(map[string]*Node),
	}
}

// Loop returns the simulation loop.
func (nw *Network) Loop() *sim.Loop { return nw.loop }

// Params returns the network's parameter set.
func (nw *Network) Params() model.Params { return nw.params }

// AddNode creates a node with the configured CPU core and NIC engine
// counts. Node names must be unique.
func (nw *Network) AddNode(name string) *Node {
	if _, dup := nw.nodes[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	n := &Node{
		name:     name,
		net:      nw,
		CPU:      sim.NewResource(nw.loop, name+"/cpu", nw.params.Host.Cores),
		NIC:      sim.NewResource(nw.loop, name+"/nic", nw.params.Host.NICEngines),
		handlers: make(map[Protocol]Handler),
		links:    make(map[*Node]*Link),
	}
	nw.nodes[name] = n
	return n
}

// Node returns the named node, or nil if absent.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// Connect creates (or returns the existing) full-duplex link between two
// nodes using the network's link parameters.
func (nw *Network) Connect(a, b *Node) *Link {
	if a == b {
		panic("fabric: cannot link a node to itself")
	}
	if l, ok := a.links[b]; ok {
		return l
	}
	l := &Link{net: nw, a: a, b: b, params: nw.params.Link}
	l.ab.init(nw.loop, a.name+"->"+b.name)
	l.ba.init(nw.loop, b.name+"->"+a.name)
	a.links[b] = l
	b.links[a] = l
	return l
}

// Link returns the link between two nodes, or nil if they are not connected.
func (nw *Network) Link(a, b *Node) *Link {
	return a.links[b]
}

// Send serializes a payload onto the link from one node to another and
// schedules delivery to the destination's protocol handler. wireBytes is
// the size charged on the wire (payload plus protocol framing). It returns
// an error if the nodes are not connected or the destination has no handler
// for the protocol.
func (nw *Network) Send(from, to *Node, proto Protocol, payload any, wireBytes int) error {
	link := nw.Link(from, to)
	if link == nil {
		return fmt.Errorf("fabric: no link %s -> %s", from.name, to.name)
	}
	if _, ok := to.handlers[proto]; !ok {
		return fmt.Errorf("fabric: node %s has no %v handler", to.name, proto)
	}
	link.transmit(from, to, proto, payload, wireBytes)
	return nil
}

// Node is one simulated host.
type Node struct {
	name string
	net  *Network

	// CPU is the host processor (Cores parallel servers). All software
	// costs — syscalls, copies, kernel protocol processing, selector
	// dispatch, BFT logic — are charged here.
	CPU *sim.Resource

	// NIC is the RDMA NIC's processing/DMA engine pool. RDMA data-path
	// costs are charged here instead of the CPU: that asymmetry is the
	// kernel-bypass / zero-copy advantage.
	NIC *sim.Resource

	handlers map[Protocol]Handler
	links    map[*Node]*Link // by peer; Send's lookup, keyed by pointer
}

// Name returns the node's unique name.
func (n *Node) Name() string { return n.name }

// Network returns the network the node belongs to.
func (n *Node) Network() *Network { return n.net }

// Loop returns the simulation loop.
func (n *Node) Loop() *sim.Loop { return n.net.loop }

// Register installs the handler for a protocol, replacing any previous one.
func (n *Node) Register(proto Protocol, h Handler) {
	if h == nil {
		panic("fabric: nil handler")
	}
	n.handlers[proto] = h
}

// LinkFaults is the injected fault state of one link (both directions).
// The zero value is a healthy link. All randomness (loss, jitter) is drawn
// from the simulation loop's seeded source, so fault behaviour is
// deterministic per seed.
type LinkFaults struct {
	// LossRate is the probability in [0,1] that a frame is silently
	// discarded before entering the wire. Note that the simulated stream
	// transports assume a reliable fabric (no retransmission is modeled),
	// so sustained loss on an established connection degrades it
	// permanently — use for raw-fabric experiments and datagram traffic.
	LossRate float64
	// ExtraLatency is added to every frame's propagation delay.
	ExtraLatency sim.Time
	// Jitter adds a uniformly distributed random delay in [0, Jitter) per
	// frame. Delivery remains FIFO per direction: a frame is never
	// delivered before one sent earlier on the same direction.
	Jitter sim.Time
	// Down severs the link: frames are held instead of transmitted and
	// are released in order when the link comes back up. This models a
	// network partition as an unbounded delay (the standard asynchronous
	// model), which keeps the loss-free stream transports above the
	// fabric intact across a heal.
	Down bool
}

// heldFrame is a frame queued while its link is down.
type heldFrame struct {
	from, to  *Node
	proto     Protocol
	payload   any
	wireBytes int
}

// Link is a full-duplex point-to-point link.
type Link struct {
	net    *Network
	a, b   *Node
	params model.LinkParams
	ab, ba lane

	drop   DropFunc
	faults LinkFaults
	held   []heldFrame

	// Stats per link (both directions combined).
	frames  uint64
	bytes   uint64
	dropped uint64
}

// SetDrop installs a fault-injection predicate; frames for which it returns
// true vanish before entering the wire.
func (l *Link) SetDrop(fn DropFunc) { l.drop = fn }

// Faults returns the link's current fault state.
func (l *Link) Faults() LinkFaults { return l.faults }

// SetFaults replaces the link's fault state. Clearing Down releases all
// held frames, in their original order, through the then-current fault
// state (so a healed link delivers its backlog at normal link speed).
func (l *Link) SetFaults(f LinkFaults) {
	wasDown := l.faults.Down
	l.faults = f
	if wasDown && !f.Down {
		held := l.held
		l.held = nil
		for _, h := range held {
			l.transmit(h.from, h.to, h.proto, h.payload, h.wireBytes)
		}
	}
}

// SetDown severs or restores the link, preserving the other fault fields.
func (l *Link) SetDown(down bool) {
	f := l.faults
	f.Down = down
	l.SetFaults(f)
}

// Frames returns the number of frames transmitted.
func (l *Link) Frames() uint64 { return l.frames }

// Bytes returns the number of payload bytes transmitted.
func (l *Link) Bytes() uint64 { return l.bytes }

// Dropped returns the number of frames removed by fault injection.
func (l *Link) Dropped() uint64 { return l.dropped }

// Held returns the number of frames currently queued on a down link.
func (l *Link) Held() int { return len(l.held) }

func (l *Link) direction(from *Node) *lane {
	if from == l.a {
		return &l.ab
	}
	return &l.ba
}

// lane is one direction of a link. Its serialization server is a
// one-server FIFO and its arrival times never decrease (a frame never
// overtakes an earlier one), so frames finish serializing, and arrive, in
// the order they were sent. The lane therefore keeps its frames in two
// FIFOs and drives both stages with callbacks built once, where a closure
// per frame and stage would do the same work with two allocations.
type lane struct {
	loop *sim.Loop
	ser  *sim.Resource
	// lastArrival is the latest scheduled delivery time, so jittered
	// frames cannot overtake earlier ones.
	lastArrival sim.Time
	serializing sim.FIFO[laneFrame] // frames on the serialization server
	inFlight    sim.FIFO[laneFrame] // frames propagating, in arrival order
	serialized  func()
	arrived     func()
}

// laneFrame is a frame in a lane's pipeline; at is its propagation delay
// until it leaves serialization, then its arrival time.
type laneFrame struct {
	from, to  *Node
	proto     Protocol
	payload   any
	wireBytes int
	at        sim.Time
}

func (ln *lane) init(loop *sim.Loop, name string) {
	ln.loop = loop
	ln.ser = sim.NewResource(loop, name, 1)
	ln.serialized = ln.onSerialized
	ln.arrived = ln.onArrived
}

func (ln *lane) onSerialized() {
	f := ln.serializing.Pop()
	at := ln.loop.Now() + f.at
	if at < ln.lastArrival {
		at = ln.lastArrival // FIFO: never overtake an earlier frame
	}
	ln.lastArrival = at
	f.at = at
	ln.inFlight.Push(f)
	ln.loop.At(at, ln.arrived)
}

func (ln *lane) onArrived() {
	f := ln.inFlight.Pop()
	if h := f.to.handlers[f.proto]; h != nil {
		h(f.from, f.payload, f.wireBytes)
	}
}

func (l *Link) transmit(from, to *Node, proto Protocol, payload any, wireBytes int) {
	// Hold before consulting the DropFunc: held frames re-enter transmit
	// on heal, and each frame must face the predicate exactly once.
	if l.faults.Down {
		l.held = append(l.held, heldFrame{from, to, proto, payload, wireBytes})
		return
	}
	if l.drop != nil && l.drop(from, to, payload, wireBytes) {
		l.dropped++
		return
	}
	if l.faults.LossRate > 0 && l.net.loop.Rand().Float64() < l.faults.LossRate {
		l.dropped++
		return
	}
	l.frames++
	l.bytes += uint64(wireBytes)
	ser := l.params.SerializeTime(wireBytes)
	prop := l.params.Propagation + l.faults.ExtraLatency
	if l.faults.Jitter > 0 {
		prop += sim.Time(l.net.loop.Rand().Int63n(int64(l.faults.Jitter)))
	}
	ln := l.direction(from)
	ln.serializing.Push(laneFrame{from: from, to: to, proto: proto, payload: payload, wireBytes: wireBytes, at: prop})
	ln.ser.Acquire(ser, ln.serialized)
}
