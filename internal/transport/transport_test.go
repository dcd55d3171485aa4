package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/tcpsim"
)

// rig builds an n-node network with a stack of the given kind on each.
type rig struct {
	loop   *sim.Loop
	nw     *fabric.Network
	nodes  []*fabric.Node
	stacks []Stack
}

func newRig(t *testing.T, kind Kind, n int, opts Options) *rig {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	r := &rig{loop: loop, nw: nw}
	for i := 0; i < n; i++ {
		node := nw.AddNode(fmt.Sprintf("n%d", i))
		r.nodes = append(r.nodes, node)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			nw.Connect(r.nodes[i], r.nodes[j])
		}
	}
	for i := 0; i < n; i++ {
		st, err := NewStack(kind, r.nodes[i], opts)
		if err != nil {
			t.Fatalf("NewStack: %v", err)
		}
		r.stacks = append(r.stacks, st)
	}
	return r
}

// pair establishes a connection from stack 0 to a listener on stack 1.
func (r *rig) pair(t *testing.T, port int) (client, server Conn) {
	t.Helper()
	if err := r.stacks[1].Listen(port, func(c Conn) { server = c }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	r.loop.Post(func() {
		r.stacks[0].Dial(r.nodes[1], port, func(c Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			client = c
		})
	})
	r.loop.Run()
	if client == nil || server == nil {
		t.Fatal("connection not established")
	}
	return client, server
}

func kinds() []Kind { return []Kind{KindTCP, KindRDMA} }

func TestMessageDeliveryBothBackends(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			if client.Kind() != kind || server.Kind() != kind {
				t.Fatal("kind mismatch")
			}
			var got [][]byte
			server.OnMessage(func(m []byte) { got = append(got, m) })
			want := [][]byte{
				[]byte("hello"),
				bytes.Repeat([]byte{7}, 100<<10),
				{},
				bytes.Repeat([]byte{9}, 1<<10),
			}
			r.loop.Post(func() {
				for _, m := range want {
					if err := client.Send(m); err != nil {
						t.Errorf("Send: %v", err)
					}
				}
			})
			r.loop.Run()
			if len(got) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("message %d corrupted (%d vs %d bytes)", i, len(got[i]), len(want[i]))
				}
			}
		})
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			var fromClient, fromServer int
			server.OnMessage(func(m []byte) {
				fromClient++
				_ = server.Send(m) // echo
			})
			client.OnMessage(func(m []byte) { fromServer++ })
			r.loop.Post(func() {
				for i := 0; i < 25; i++ {
					_ = client.Send(bytes.Repeat([]byte{byte(i)}, 2048))
				}
			})
			r.loop.Run()
			if fromClient != 25 || fromServer != 25 {
				t.Fatalf("echo incomplete: %d/%d", fromClient, fromServer)
			}
		})
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxMessage = 4096
			r := newRig(t, kind, 2, opts)
			client, _ := r.pair(t, 700)
			r.loop.Post(func() {
				if err := client.Send(make([]byte, 8192)); err == nil {
					t.Error("oversized message accepted")
				}
			})
			r.loop.Run()
		})
	}
}

func TestBackpressureOverflowDrains(t *testing.T) {
	// Tiny RDMA pools force ErrWouldBlock internally; the transport's
	// overflow queue must still deliver everything in order.
	opts := DefaultOptions()
	opts.WRs = 4
	r := newRig(t, KindRDMA, 2, opts)
	client, server := r.pair(t, 700)
	var got []int
	server.OnMessage(func(m []byte) { got = append(got, int(m[0])) })
	const n = 50
	r.loop.Post(func() {
		for i := 0; i < n; i++ {
			if err := client.Send(bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
	})
	r.loop.Run()
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got[:i+1])
		}
	}
}

func TestMessagesBeforeOnMessageAreQueued(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			r.loop.Post(func() { _ = client.Send([]byte("early")) })
			r.loop.Run()
			var got [][]byte
			server.OnMessage(func(m []byte) { got = append(got, m) })
			if len(got) != 1 || string(got[0]) != "early" {
				t.Fatalf("queued message lost: %q", got)
			}
		})
	}
}

func TestSendOnClosedConnFails(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, _ := r.pair(t, 700)
			r.loop.Post(func() {
				client.Close()
				if err := client.Send([]byte("x")); err == nil {
					t.Error("Send after Close should fail")
				}
			})
			r.loop.Run()
		})
	}
}

func TestTCPCloseNotifiesPeer(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	closed := false
	server.OnClose(func() { closed = true })
	r.loop.Post(client.Close)
	r.loop.Run()
	if !closed {
		t.Fatal("peer close not observed")
	}
}

func TestDialFailure(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			var gotErr error
			called := false
			r.loop.Post(func() {
				r.stacks[0].Dial(r.nodes[1], 999, func(c Conn, err error) {
					called = true
					gotErr = err
				})
			})
			r.loop.Run()
			if !called || gotErr == nil {
				t.Fatalf("expected dial failure, called=%v err=%v", called, gotErr)
			}
		})
	}
}

func TestFullMeshManyNodes(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const n = 4
			r := newRig(t, kind, n, DefaultOptions())
			// Every stack listens; every stack dials every other.
			conns := make(map[int][]Conn) // receiver -> accepted conns
			received := make(map[int]int)
			for i := 0; i < n; i++ {
				i := i
				err := r.stacks[i].Listen(700, func(c Conn) {
					conns[i] = append(conns[i], c)
					c.OnMessage(func(m []byte) { received[i]++ })
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			var dialed []Conn
			r.loop.Post(func() {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						r.stacks[i].Dial(r.nodes[j], 700, func(c Conn, err error) {
							if err != nil {
								t.Errorf("Dial %d->%d: %v", i, j, err)
								return
							}
							dialed = append(dialed, c)
						})
					}
				}
			})
			r.loop.Run()
			if len(dialed) != n*(n-1) {
				t.Fatalf("dialed %d conns, want %d", len(dialed), n*(n-1))
			}
			r.loop.Post(func() {
				for _, c := range dialed {
					_ = c.Send([]byte("broadcast"))
				}
			})
			r.loop.Run()
			for i := 0; i < n; i++ {
				if received[i] != n-1 {
					t.Fatalf("node %d received %d messages, want %d", i, received[i], n-1)
				}
			}
		})
	}
}

func TestInvalidOptionsAndKind(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	node := nw.AddNode("x")
	if _, err := NewStack(KindTCP, node, Options{}); err == nil {
		t.Fatal("zero options should be rejected")
	}
	if _, err := NewStack("bogus", node, DefaultOptions()); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
}

func TestRDMAPeerIdentity(t *testing.T) {
	r := newRig(t, KindRDMA, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	if client.Peer() != r.nodes[1] {
		t.Fatalf("client peer = %v, want %v", client.Peer(), r.nodes[1])
	}
	if server.Peer() != r.nodes[0] {
		t.Fatalf("server peer = %v, want %v", server.Peer(), r.nodes[0])
	}
}

func TestLargeVolumeStream(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			total := 0
			server.OnMessage(func(m []byte) { total += len(m) })
			const msgs = 200
			const size = 8 << 10
			sent := 0
			var sendNext func()
			sendNext = func() {
				for sent < msgs {
					if err := client.Send(bytes.Repeat([]byte{1}, size)); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
					sent++
					if sent%20 == 0 {
						// Yield so receive processing interleaves.
						r.loop.After(50*sim.Microsecond, sendNext)
						return
					}
				}
			}
			r.loop.Post(sendNext)
			r.loop.Run()
			if total != msgs*size {
				t.Fatalf("received %d bytes, want %d", total, msgs*size)
			}
		})
	}
}

// TestDeliveredBuffersStayIntact pins the receive-buffer ownership
// contract on both backends: a buffer delivered by OnMessage belongs to
// the receiver, so it must keep its bytes while later traffic arrives on
// the same connection. A deframer that handed out slices of a reused
// receive buffer fails here. The sender also reuses one buffer for every
// Send, which Send's copy makes safe.
func TestDeliveredBuffersStayIntact(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			var got [][]byte
			server.OnMessage(func(m []byte) { got = append(got, m) })
			sizes := []int{3, 200, 1500, 9000, 70 << 10, 64}
			var want [][]byte
			buf := make([]byte, 0, 80<<10)
			for round := 0; round < 4; round++ {
				r.loop.Post(func() {
					for i, n := range sizes {
						buf = buf[:n]
						for j := range buf {
							buf[j] = byte(round*31 + i*7 + j)
						}
						want = append(want, bytes.Clone(buf))
						if err := client.Send(buf); err != nil {
							t.Errorf("Send: %v", err)
						}
						clear(buf) // the caller owns buf again
					}
				})
				r.loop.Run()
			}
			if len(got) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("message %d (%d bytes) changed after later traffic", i, len(want[i]))
				}
			}
		})
	}
}

// TestTCPBacklogWithLaterSendsKeepsOrderAndCounts queues more than the
// socket buffer holds in one event turn, so flushes end in short writes
// that merge the rest of their batch into one queue entry. Every byte
// must still leave exactly once and in order, and Unsent must count
// entries down to zero.
//
// It does NOT show that a backlog drains on its own. The simulated
// socket arms OnWritable only after a write of zero bytes, not after a
// short one, so without later traffic the tail of the backlog stays
// queued (37 of the 100 frames here are never delivered); the trickle of
// later sends is what re-arms the flush. That stall is a known open defect of tcpsim.
func TestTCPBacklogWithLaterSendsKeepsOrderAndCounts(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	var got []int
	server.OnMessage(func(m []byte) {
		if !bytes.Equal(m, bytes.Repeat([]byte{m[0]}, len(m))) {
			t.Errorf("message %d corrupted", m[0])
		}
		got = append(got, int(m[0]))
	})
	const bulk = 100 // 100 x 64 KB overflows the 4 MB socket buffer
	const trickle = 100
	sawBacklog := false
	r.loop.Post(func() {
		for i := 0; i < bulk; i++ {
			if err := client.Send(bytes.Repeat([]byte{byte(i)}, 64<<10)); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
		if client.Unsent() != bulk {
			t.Errorf("Unsent = %d before the flush, want %d", client.Unsent(), bulk)
		}
	})
	for i := 0; i < trickle; i++ {
		i := i
		r.loop.At(sim.Time(i+1)*sim.Millisecond, func() {
			if client.Unsent() > 0 {
				sawBacklog = true
			}
			if err := client.Send([]byte{byte(bulk + i)}); err != nil {
				t.Errorf("Send: %v", err)
			}
		})
	}
	r.loop.Run()
	if !sawBacklog {
		t.Fatal("the socket buffer never filled; the test exercises nothing")
	}
	if client.Unsent() != 0 {
		t.Fatalf("Unsent = %d after the run", client.Unsent())
	}
	if len(got) != bulk+trickle {
		t.Fatalf("delivered %d, want %d", len(got), bulk+trickle)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestTCPOversizedLengthPrefixClosesConn writes, through a raw simulated
// TCP socket, a frame header announcing more than MaxMessage bytes, as a
// Byzantine peer could. The receiver must tear the connection down at
// the header instead of buffering toward the announced length.
func TestTCPOversizedLengthPrefixClosesConn(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	evil, honest := nw.AddNode("evil"), nw.AddNode("honest")
	nw.Connect(evil, honest)
	opts := DefaultOptions()
	st, err := NewStack(KindTCP, honest, opts)
	if err != nil {
		t.Fatal(err)
	}
	var server Conn
	serverClosed := false
	if err := st.Listen(700, func(c Conn) {
		server = c
		c.OnMessage(func([]byte) { t.Error("a message was delivered") })
		c.OnClose(func() { serverClosed = true })
	}); err != nil {
		t.Fatal(err)
	}
	raw := tcpsim.NewStack(evil)
	rawClosed := false
	loop.Post(func() {
		raw.Dial(honest, 700, func(c *tcpsim.Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			c.OnClose(func() { rawClosed = true })
			frame := binary.BigEndian.AppendUint32(nil, uint32(opts.MaxMessage)+1)
			frame = append(frame, make([]byte, 32<<10)...)
			if _, err := c.Write(frame); err != nil {
				t.Errorf("Write: %v", err)
			}
		})
	})
	loop.Run()
	if server == nil {
		t.Fatal("connection not accepted")
	}
	if !serverClosed || !rawClosed {
		t.Fatalf("connection survived a hostile length prefix (server closed %v, peer saw close %v)", serverClosed, rawClosed)
	}
	if tc := server.(*tcpConn); len(tc.acc)-tc.accOff > 4+(32<<10) {
		t.Fatalf("receiver buffered %d bytes toward the bogus frame", len(tc.acc)-tc.accOff)
	}
	if err := server.Send([]byte("x")); err == nil {
		t.Fatal("Send succeeded on the torn-down connection")
	}
}
