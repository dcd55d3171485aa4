package bench

import (
	"fmt"

	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// BFTConfig parameterizes the fully-replicated-system evaluation (the
// paper's stated future work, experiment E5, and the N-axis of the E8
// scaling study): a 3F+1 PBFT cluster ordering closed-loop client requests
// over either transport stack. Cluster size (N, F) and offered load
// (Clients, Window) are parameters, not constants.
type BFTConfig struct {
	Kind     transport.Kind
	Payload  int // request operation size
	Requests int // measured requests per client
	Warmup   int // unmeasured requests per client
	Window   int // outstanding requests per client
	Batch    int // PBFT batch size
	N, F     int
	Clients  int // closed-loop clients (0 means 1)
	Seed     int64
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// Label describes the replica-group shape of this configuration — derived
// from the actual values, so a 7-replica run never reads "4 replicas".
func (c BFTConfig) Label() string {
	label := fmt.Sprintf("%d replicas, f=%d", c.N, c.F)
	if c.Clients > 1 {
		label += fmt.Sprintf(", %d clients", c.Clients)
	}
	return label
}

// BFTResult is one measurement point of the replicated system.
type BFTResult struct {
	Kind       transport.Kind
	Payload    int
	MeanLat    sim.Time // client-observed request latency
	P99Lat     sim.Time
	Throughput float64 // requests per second across all clients
	SendFaults uint64  // delivery failures surfaced by msgnet across replicas
	// Breakdown attributes the measured latency to protocol phases
	// (Breakdown.Total equals MeanLat up to integer-mean rounding).
	Breakdown obs.Summary
	// PeakQueueBytes is the deepest msgnet send queue any replica saw.
	PeakQueueBytes int
}

// closedLoop is the measurement driver RunBFT and RunCOP share: each of
// clients runs its own closed loop of window outstanding requests through
// invoke(ci, op, done). Latency samples start after the per-client warmup;
// startAt is the moment the first client sends its first measured request
// and endAt the last measured completion.
type closedLoop struct {
	rec     *metrics.Recorder
	startAt sim.Time
	endAt   sim.Time
	done    int
}

// runClosedLoop drives the workload to completion on loop; makeOp builds
// the idx-th operation of client ci (keys must be unique per (ci, idx)).
// invoke returns the submitted request's trace id ("" when untraceable);
// tr folds each finished request into the latency breakdown.
func runClosedLoop(loop *sim.Loop, tr *obs.Tracer, clients, requests, warmup, window int,
	makeOp func(ci, idx int) []byte,
	invoke func(ci int, op []byte, done func([]byte)) string) closedLoop {
	cl := closedLoop{rec: metrics.NewRecorder()}
	perClient := requests + warmup
	started := false
	launch := func(ci int) {
		sent, done := 0, 0
		var sendOne func()
		sendOne = func() {
			if sent == warmup && !started {
				cl.startAt, started = loop.Now(), true
			}
			idx := sent
			sent++
			t0 := loop.Now()
			var id string
			id = invoke(ci, makeOp(ci, idx), func([]byte) {
				done++
				cl.done++
				measured := done > warmup
				if measured {
					cl.rec.Record(loop.Now() - t0)
					cl.endAt = loop.Now()
				}
				if tr != nil && id != "" {
					tr.MarkReturn(id, loop.Now())
					tr.Finish(id, measured)
				}
				if sent < perClient {
					sendOne()
				}
			})
			// Safe after the invoke: replies cross the simulated network,
			// so done cannot have fired synchronously at this same event.
			if tr != nil && id != "" {
				tr.MarkArrive(id, t0)
				tr.MarkInvoke(id, t0)
			}
		}
		loop.Post(func() {
			for i := 0; i < window && sent < perClient; i++ {
				sendOne()
			}
		})
	}
	for ci := 0; ci < clients; ci++ {
		launch(ci)
	}
	loop.Run()
	return cl
}

// RunBFT measures agreement latency and throughput of the full replicated
// system for one configuration. Each client runs its own closed loop of
// Window outstanding requests; latency samples start after the per-client
// warmup and throughput aggregates all clients.
func RunBFT(cfg BFTConfig, params model.Params) (BFTResult, error) {
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	pcfg := pbft.DefaultConfig()
	pcfg.N, pcfg.F = cfg.N, cfg.F
	pcfg.BatchSize = cfg.Batch
	cluster, err := pbft.NewCluster(cfg.Kind, pcfg, params, cfg.Seed,
		func(i int) pbft.Application { return kvstore.New() })
	if err != nil {
		return BFTResult{}, err
	}
	if err := cluster.Start(); err != nil {
		return BFTResult{}, err
	}
	tr := benchTracer(cfg.Trace, fmt.Sprintf("PBFT %s N=%d clients=%d payload=%dB seed=%d",
		cfg.Kind, cfg.N, clients, cfg.Payload, cfg.Seed))
	cluster.SetTracer(tr)
	cls := make([]*pbft.Client, clients)
	for i := range cls {
		if cls[i], err = cluster.AddClient(); err != nil {
			return BFTResult{}, err
		}
	}
	startSamplers(tr, cluster.Loop, cluster.Meshes, nil)

	value := string(make([]byte, cfg.Payload))
	res := runClosedLoop(cluster.Loop, tr, clients, cfg.Requests, cfg.Warmup, cfg.Window,
		func(ci, idx int) []byte {
			return kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("bench-%d-%06d", ci, idx), value)
		},
		func(ci int, op []byte, done func([]byte)) string { return cls[ci].Invoke(op, done) })
	if want := (cfg.Requests + cfg.Warmup) * clients; res.done != want {
		return BFTResult{}, fmt.Errorf("bench: completed %d of %d requests", res.done, want)
	}
	return BFTResult{
		Kind:           cfg.Kind,
		Payload:        cfg.Payload,
		MeanLat:        res.rec.Mean(),
		P99Lat:         res.rec.Percentile(99),
		Throughput:     metrics.Throughput(res.rec.Count(), res.endAt-res.startAt),
		SendFaults:     cluster.SendFaults(),
		Breakdown:      tr.Summary(),
		PeakQueueBytes: cluster.PeakQueueBytes(),
	}, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E5 (replicated-system agreement over both transports).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E5",
		Title:  "BFT agreement latency and throughput (PBFT over RUBIN vs NIO)",
		Figure: "paper Section VI (stated future work)",
		Knobs: []Knob{
			{"payloads_kb", "1,4,16", "1", 1, list},
			{"n", "4", "", 1, scalar},
			{"f", "", "", 0, scalar}, // (n-1)/3 unless set; see Check
			{"requests", "150", "60", 1, scalar},
			{"warmup", "20", "10", 0, scalar},
			{"window", "16", "", 1, scalar},
			{"batch", "8", "", 1, scalar},
			{"clients", "1", "", 1, scalar},
		},
		Check: func(v KnobValues) error {
			if _, set := v["f"]; !set {
				v["f"] = []int{(v.Int("n") - 1) / 3}
			}
			return nil
		},
		Run: runE5,
	})
}

// e5SeriesNames label the replicated system on each backend.
var e5SeriesNames = map[transport.Kind]string{
	transport.KindRDMA: "Reptor+RUBIN",
	transport.KindTCP:  "Reptor+NIO",
}

func runE5(rc RunContext, v KnobValues, res *metrics.Result) error {
	base := BFTConfig{
		Requests: v.Int("requests"), Warmup: v.Int("warmup"), Window: v.Int("window"),
		Batch: v.Int("batch"), N: v.Int("n"), F: v.Int("f"), Clients: v.Int("clients"),
		Seed: rc.Seed, Trace: rc.Trace,
	}
	res.SetConfig("cluster", base.Label())
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		name := e5SeriesNames[kind]
		mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "payload_kb")
		p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "payload_kb")
		tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "payload_kb")
		faults := res.AddSeries(name, metrics.MetricSendFaults, "count", string(kind), "payload_kb")
		for _, kb := range v.Ints("payloads_kb") {
			c := base
			c.Kind = kind
			c.Payload = kb << 10
			r, err := RunBFT(c, rc.Model)
			if err != nil {
				return err
			}
			mean.Add(float64(kb), r.MeanLat.Micros())
			p99.Add(float64(kb), r.P99Lat.Micros())
			tput.Add(float64(kb), r.Throughput)
			faults.Add(float64(kb), float64(r.SendFaults))
		}
	}
	return nil
}
