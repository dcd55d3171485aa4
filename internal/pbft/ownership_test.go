package pbft

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestDecodedMessagesSurviveLaterTraffic pins the receive side of the
// ownership contract on both transport backends. Decoders alias the
// delivered buffer instead of copying fields, so a decoded Envelope and
// the PrePrepare inside it stay valid only because the transport hands
// every message over in a buffer of its own. Each envelope is decoded on
// arrival and checked again after all later messages on the same
// connection have arrived.
func TestDecodedMessagesSurviveLaterTraffic(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindTCP, transport.KindRDMA} {
		t.Run(string(kind), func(t *testing.T) {
			loop := sim.NewLoop(1)
			nw := fabric.New(loop, model.Default())
			a, b := nw.AddNode("a"), nw.AddNode("b")
			nw.Connect(a, b)
			sa, err := transport.NewStack(kind, a, transport.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sb, err := transport.NewStack(kind, b, transport.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			type decoded struct {
				env Envelope
				pp  PrePrepare
			}
			var got []decoded
			if err := sb.Listen(9, func(c transport.Conn) {
				c.OnMessage(func(raw []byte) {
					env, err := DecodeEnvelope(raw)
					if err != nil {
						t.Errorf("DecodeEnvelope: %v", err)
						return
					}
					m, err := Decode(env.Payload)
					if err != nil {
						t.Errorf("Decode: %v", err)
						return
					}
					got = append(got, decoded{env, m.(PrePrepare)})
				})
			}); err != nil {
				t.Fatal(err)
			}
			rings := auth.GenerateKeyrings(4, 1)
			var wantPP []PrePrepare
			var wantEnv []Envelope
			sa.Dial(b, 9, func(c transport.Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				// Sizes straddle the RDMA inline limit and TCP segments;
				// sends are spaced so each message arrives in a receive
				// pass of its own, after the previous one was decoded.
				for i, opLen := range []int{16, 100, 1000, 3000, 40, 20000} {
					batch := []Request{
						{Client: uint32(i), Timestamp: uint64(i), Op: bytes.Repeat([]byte{byte(i + 1)}, opLen)},
						{Client: 9, Timestamp: 7, Op: []byte(fmt.Sprint("op", i))},
					}
					pp := PrePrepare{View: 1, Seq: uint64(i + 1), Digest: BatchDigest(batch), Batch: batch}
					payload := Encode(pp)
					env := Envelope{Sender: 0, Payload: payload, Auth: rings[0].Authenticate(payload)}
					wantPP = append(wantPP, pp)
					wantEnv = append(wantEnv, env)
					loop.After(sim.Time(i)*sim.Millisecond, func() {
						if err := c.Send(EncodeEnvelope(env)); err != nil {
							t.Errorf("Send: %v", err)
						}
					})
				}
			})
			loop.Run()
			if len(got) != len(wantPP) {
				t.Fatalf("decoded %d messages, want %d", len(got), len(wantPP))
			}
			for i, d := range got {
				if !reflect.DeepEqual(d.pp, wantPP[i]) {
					t.Fatalf("pre-prepare %d changed after later messages arrived", i)
				}
				if d.env.Sender != wantEnv[i].Sender || !bytes.Equal(d.env.Payload, wantEnv[i].Payload) ||
					len(d.env.Auth) != len(wantEnv[i].Auth) {
					t.Fatalf("envelope %d changed after later messages arrived", i)
				}
				for j, mac := range wantEnv[i].Auth {
					if !bytes.Equal(d.env.Auth[j], mac) {
						t.Fatalf("envelope %d: MAC %d changed after later messages arrived", i, j)
					}
				}
				if !rings[1].VerifyFrom(0, d.env.Payload, d.env.Auth) {
					t.Fatalf("envelope %d no longer verifies", i)
				}
			}
		})
	}
}

// TestDecodedFieldsAreCapped checks that an aliased field cannot be
// appended to in place: growing a decoded slice must reallocate rather
// than overwrite the bytes that follow it in the received buffer.
func TestDecodedFieldsAreCapped(t *testing.T) {
	msg := Encode(Request{Client: 1, Timestamp: 2, Op: []byte("abc")})
	raw := append(msg, "next message"...) // the op is followed by more bytes
	m, err := Decode(raw[:len(msg)])
	if err != nil {
		t.Fatal(err)
	}
	op := m.(Request).Op
	if cap(op) != len(op) {
		t.Fatalf("decoded op has cap %d beyond its len %d", cap(op), len(op))
	}
	before := bytes.Clone(raw)
	_ = append(op, 'X')
	if !bytes.Equal(raw, before) {
		t.Fatal("append to a decoded field wrote into the received buffer")
	}
}
