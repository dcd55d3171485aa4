package bench

import (
	"fmt"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// Experiment ALLOC audits the hot-path efficiency work: it measures the
// steady-state heap allocations of one operation on each per-message
// layer of the request round trip — a msgnet Peer.Send drained to the
// substrate, a message sent and delivered over each transport backend,
// an auth MAC/Verify/Authenticate, a pbft envelope decode and
// pre-prepare encode, a kvstore bucket encode, and a sim timer armed and
// fired — via testing.AllocsPerRun after warming every pool to its
// steady footprint.
// The numbers are properties of the code, not the machine, so the result
// file doubles as a regression baseline: the root test
// TestAllocRegressionCheckedIn re-measures in process and fails when a
// layer's allocs/op grow past the checked-in curve.
//
// Quick mode shrinks the AllocsPerRun iteration count but keeps every
// sweep point, so quick and full runs are point-for-point comparable.

// authAllocsPerOp measures the keyring hot paths of an n-replica group:
// MAC and Verify against one peer, and a full Authenticate vector.
func authAllocsPerOp(runs, n, payload int) (mac, verify, authn float64) {
	rings := auth.GenerateKeyrings(n, 1)
	msg := make([]byte, payload)
	tag := make([]byte, 0, auth.MACSize)
	for i := 0; i < 8; i++ { // warm the lazy per-peer HMAC states
		tag = append(tag[:0], rings[0].MAC(1, msg)...)
		rings[1].Verify(0, msg, tag)
		_ = rings[0].Authenticate(msg)
	}
	mac = testing.AllocsPerRun(runs, func() { _ = rings[0].MAC(1, msg) })
	verify = testing.AllocsPerRun(runs, func() { rings[1].Verify(0, msg, tag) })
	authn = testing.AllocsPerRun(runs, func() { _ = rings[0].Authenticate(msg) })
	return mac, verify, authn
}

// simTimerAllocsPerOp measures arming plus firing one timer, and arming
// plus cancelling one, against a heap already holding pending parked
// events (the realistic replica steady state: request timers, heartbeats
// and batch deadlines all outstanding at once).
func simTimerAllocsPerOp(runs, pending int) (fire, cancel float64) {
	loop := sim.NewLoop(1)
	park := sim.Time(1) << 40 // far future: parked events never run
	for i := 0; i < pending; i++ {
		loop.At(park, func() {})
	}
	var at sim.Time
	fireOne := func() {
		at += 2
		loop.At(at, func() {})
		loop.RunUntil(at)
	}
	cancelOne := func() {
		at += 2
		loop.At(at, func() {}).Cancel()
	}
	for i := 0; i < 64; i++ { // warm the event free list
		fireOne()
		cancelOne()
	}
	fire = testing.AllocsPerRun(runs, fireOne)
	cancel = testing.AllocsPerRun(runs, cancelOne)
	return fire, cancel
}

// probeBatch builds a batch of n requests with 1 KB operations.
func probeBatch(n int) []pbft.Request {
	batch := make([]pbft.Request, n)
	for i := range batch {
		batch[i] = pbft.Request{Client: uint32(i), Timestamp: uint64(i), Op: make([]byte, 1<<10)}
	}
	return batch
}

// envelopeDecodeAllocsPerOp measures DecodeEnvelope on a replica
// envelope from an n-replica group carrying a one-request pre-prepare.
// Fields alias the input, so only the authenticator's slice header array
// is allocated.
func envelopeDecodeAllocsPerOp(runs, replicas int) float64 {
	rings := auth.GenerateKeyrings(replicas, 1)
	payload := pbft.Encode(pbft.PrePrepare{View: 1, Seq: 1, Batch: probeBatch(1)})
	raw := pbft.EncodeEnvelope(pbft.Envelope{Sender: 0, Payload: payload, Auth: rings[0].Authenticate(payload)})
	return testing.AllocsPerRun(runs, func() {
		if _, err := pbft.DecodeEnvelope(raw); err != nil {
			panic(err)
		}
	})
}

// prePrepareEncodeAllocsPerOp measures Encode on a pre-prepare of batch
// requests with 1 KB operations: one buffer sized up front.
func prePrepareEncodeAllocsPerOp(runs, batch int) float64 {
	pp := pbft.PrePrepare{View: 1, Seq: 1, Batch: probeBatch(batch)}
	pp.Digest = pbft.BatchDigest(pp.Batch)
	return testing.AllocsPerRun(runs, func() { _ = pbft.Encode(pp) })
}

// deliverAllocsPerOp measures one message round through a connection of
// the given backend: Send of a payload-byte message, then every
// scheduler turn until the receiver's OnMessage has run and the
// connection is quiet again. The probe runs a private two-node network on
// a private loop and warms every queue and free list first. Under the
// ownership contract the delivered buffer belongs to the receiver, so one
// allocation per message is the floor.
func deliverAllocsPerOp(runs int, kind transport.Kind, payload int) float64 {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	a, b := nw.AddNode("probe-a"), nw.AddNode("probe-b")
	nw.Connect(a, b)
	sa, err := transport.NewStack(kind, a, transport.DefaultOptions())
	if err != nil {
		panic(err)
	}
	sb, err := transport.NewStack(kind, b, transport.DefaultOptions())
	if err != nil {
		panic(err)
	}
	delivered := 0
	if err := sb.Listen(1, func(c transport.Conn) { c.OnMessage(func([]byte) { delivered++ }) }); err != nil {
		panic(err)
	}
	var client transport.Conn
	sa.Dial(b, 1, func(c transport.Conn, err error) {
		if err != nil {
			panic(err)
		}
		client = c
	})
	loop.Run()
	msg := make([]byte, payload)
	round := func() {
		if err := client.Send(msg); err != nil {
			panic(err)
		}
		loop.Run()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(runs, round)
	if want := 64 + runs + 1; delivered != want {
		panic(fmt.Sprintf("bench: alloc probe delivered %d messages, want %d", delivered, want))
	}
	return allocs
}

// ---------------------------------------------------------------------------
// Registry entry: ALLOC (steady-state allocations per hot-path op).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "ALLOC",
		Title:  "Steady-state heap allocations per hot-path operation (msgnet send, transport deliver, auth MAC, pbft codec, kvstore encode, sim timers)",
		Figure: "beyond the paper: hot-path efficiency audit",
		Knobs: []Knob{
			{"runs", "400", "60", 1, scalar},                     // AllocsPerRun iterations
			{"whole_payloads", "256,4096,65536", "", 1, list},    // whole-frame Send payload bytes (<= one transport frame)
			{"chunked_payloads", "1048576,4194304", "", 1, list}, // chunked Send payload bytes (> one transport frame)
			{"replicas", "4,7,16", "", 2, list},                  // keyring group sizes (MAC/Verify need a peer)
			{"pending", "1,64,1024", "", 1, list},                // parked timers behind the measured one
		},
		Run: runAlloc,
	})
}

func runAlloc(rc RunContext, v KnobValues, res *metrics.Result) error {
	const unit = "allocs/op"
	runs := v.Int("runs")

	whole := res.AddSeries("msgnet send whole", metrics.MetricAllocsPerOp, unit, "", "payload_bytes")
	for _, n := range v.Ints("whole_payloads") {
		whole.Add(float64(n), msgnet.SendAllocsPerOp(runs, n))
	}
	chunked := res.AddSeries("msgnet send chunked", metrics.MetricAllocsPerOp, unit, "", "payload_bytes")
	for _, n := range v.Ints("chunked_payloads") {
		chunked.Add(float64(n), msgnet.SendAllocsPerOp(runs, n))
	}

	macS := res.AddSeries("auth mac", metrics.MetricAllocsPerOp, unit, "", "replicas")
	verifyS := res.AddSeries("auth verify", metrics.MetricAllocsPerOp, unit, "", "replicas")
	authnS := res.AddSeries("auth authenticate", metrics.MetricAllocsPerOp, unit, "", "replicas")
	for _, n := range v.Ints("replicas") {
		mac, verify, authn := authAllocsPerOp(runs, n, 1<<10)
		macS.Add(float64(n), mac)
		verifyS.Add(float64(n), verify)
		authnS.Add(float64(n), authn)
	}

	fireS := res.AddSeries("sim timer arm+fire", metrics.MetricAllocsPerOp, unit, "", "pending_timers")
	cancelS := res.AddSeries("sim timer arm+cancel", metrics.MetricAllocsPerOp, unit, "", "pending_timers")
	for _, n := range v.Ints("pending") {
		fire, cancel := simTimerAllocsPerOp(runs, n)
		fireS.Add(float64(n), fire)
		cancelS.Add(float64(n), cancel)
	}

	tcpS := res.AddSeries("transport tcp deliver", metrics.MetricAllocsPerOp, unit, "", "payload_bytes")
	rdmaS := res.AddSeries("transport rdma deliver", metrics.MetricAllocsPerOp, unit, "", "payload_bytes")
	for _, n := range v.Ints("whole_payloads") {
		tcpS.Add(float64(n), deliverAllocsPerOp(runs, transport.KindTCP, n))
		rdmaS.Add(float64(n), deliverAllocsPerOp(runs, transport.KindRDMA, n))
	}

	envS := res.AddSeries("pbft envelope decode", metrics.MetricAllocsPerOp, unit, "", "replicas")
	for _, n := range v.Ints("replicas") {
		envS.Add(float64(n), envelopeDecodeAllocsPerOp(runs, n))
	}
	ppS := res.AddSeries("pbft pre-prepare encode", metrics.MetricAllocsPerOp, unit, "", "batch_requests")
	for _, n := range []int{1, 8, 64} {
		ppS.Add(float64(n), prePrepareEncodeAllocsPerOp(runs, n))
	}
	bucketS := res.AddSeries("kvstore bucket encode", metrics.MetricAllocsPerOp, unit, "", "bucket_keys")
	for _, n := range []int{1, 16, 256} {
		bucketS.Add(float64(n), kvstore.BucketEncodeAllocsPerOp(runs, n))
	}

	res.SetConfig("method", "testing.AllocsPerRun after pool warmup; integer per-op steady state")
	return nil
}
