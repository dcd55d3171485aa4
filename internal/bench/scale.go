package bench

import (
	"fmt"

	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/reptor"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// COPConfig parameterizes one point of the Reptor COP scaling axis of
// experiment E8: K parallel PBFT instances on an N-replica group, driven
// by closed-loop clients over either transport stack.
type COPConfig struct {
	Kind      transport.Kind
	Instances int // K, the parallel consensus pipelines
	Payload   int // request operation size
	Requests  int // measured requests per client
	Warmup    int // unmeasured requests per client
	Window    int // outstanding requests per client
	Batch     int // per-instance PBFT batch size
	N, F      int
	Clients   int // closed-loop clients (0 means 1)
	Seed      int64
	// HeartbeatDelay/HeartbeatMax tune the executor's adaptive
	// hole-filling heartbeat (zero keeps the reptor defaults).
	HeartbeatDelay sim.Time
	HeartbeatMax   sim.Time
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// COPResult is one measurement point of the parallelized system.
type COPResult struct {
	Kind        transport.Kind
	Instances   int
	Payload     int
	MeanLat     sim.Time
	P99Lat      sim.Time
	Throughput  float64 // requests per second across all clients
	MergedSlots uint64  // global slots merged by node 0's executor
	// Heartbeat cost of the merge, summed across every node's executor
	// (a fill is proposed by whichever node leads the lagging instance,
	// so per-node counters are a K-dependent sample): fills fired and
	// empty slots they requested (batched fills request several slots
	// per round).
	HeartbeatRounds uint64
	HeartbeatSlots  uint64
	// Backlog is committed-but-unmerged batches left at the end across
	// all nodes — non-zero means some executor stalled behind the
	// agreement.
	Backlog int
	// LeaderCPU is the highest CPU utilization across replica nodes —
	// the saturation signal that decides whether parallelizing the
	// ordering stage can pay off at all.
	LeaderCPU float64
	// Breakdown attributes the measured latency to protocol phases;
	// Breakdown.MergeWait is the executor's commit-to-merge barrier time
	// (off the reply path, so it is not part of the partition).
	Breakdown obs.Summary
	// PeakBacklog is the most committed-but-unmerged batches any node's
	// executor held at once — the transient counterpart of Backlog.
	PeakBacklog int
	// PeakQueueBytes is the deepest msgnet send queue any replica saw.
	PeakQueueBytes int
}

// RunCOP measures ordering latency and throughput of a Reptor COP group
// for one configuration. Clients route operations to instances by hash
// (each instance orders a disjoint partition), so adding instances scales
// the ordering pipeline — the Middleware '15 parallelization the paper
// targets RUBIN at.
func RunCOP(cfg COPConfig, params model.Params) (COPResult, error) {
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	gcfg := reptor.DefaultConfig()
	gcfg.Instances = cfg.Instances
	gcfg.PBFT.N, gcfg.PBFT.F = cfg.N, cfg.F
	gcfg.PBFT.BatchSize = cfg.Batch
	if cfg.HeartbeatDelay > 0 {
		gcfg.HeartbeatDelay = cfg.HeartbeatDelay
	}
	if cfg.HeartbeatMax > 0 {
		gcfg.HeartbeatMax = cfg.HeartbeatMax
	}
	group, err := reptor.NewGroup(cfg.Kind, gcfg, params, cfg.Seed,
		func(int) pbft.Application { return kvstore.New() })
	if err != nil {
		return COPResult{}, err
	}
	if err := group.Start(); err != nil {
		return COPResult{}, err
	}
	tr := benchTracer(cfg.Trace, fmt.Sprintf("COP %s K=%d N=%d clients=%d payload=%dB seed=%d",
		cfg.Kind, cfg.Instances, cfg.N, clients, cfg.Payload, cfg.Seed))
	group.SetTracer(tr)
	cls := make([]*reptor.Client, clients)
	for i := range cls {
		if cls[i], err = group.AddClient(); err != nil {
			return COPResult{}, err
		}
	}
	startSamplers(tr, group.Loop, group.Meshes, group.Executors)

	value := string(make([]byte, cfg.Payload))
	res := runClosedLoop(group.Loop, tr, clients, cfg.Requests, cfg.Warmup, cfg.Window,
		func(ci, idx int) []byte {
			return kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("cop-%d-%06d", ci, idx), value)
		},
		func(ci int, op []byte, done func([]byte)) string { return cls[ci].Invoke(op, done) })
	if want := (cfg.Requests + cfg.Warmup) * clients; res.done != want {
		return COPResult{}, fmt.Errorf("bench: COP completed %d of %d requests", res.done, want)
	}
	var maxCPU float64
	for i := 0; i < cfg.N; i++ {
		if u := group.Network.Node(fmt.Sprintf("r%d", i)).CPU.Utilization(); u > maxCPU {
			maxCPU = u
		}
	}
	var hbRounds, hbSlots uint64
	backlog, peakBacklog := 0, 0
	for _, ex := range group.Executors {
		hbRounds += ex.HeartbeatRounds()
		hbSlots += ex.HeartbeatSlots()
		backlog += ex.Backlog()
		if pb := ex.PeakBacklog(); pb > peakBacklog {
			peakBacklog = pb
		}
	}
	return COPResult{
		Kind:            cfg.Kind,
		Instances:       cfg.Instances,
		Payload:         cfg.Payload,
		MeanLat:         res.rec.Mean(),
		P99Lat:          res.rec.Percentile(99),
		Throughput:      metrics.Throughput(res.rec.Count(), res.endAt-res.startAt),
		MergedSlots:     group.Executors[0].MergedSlots(),
		HeartbeatRounds: hbRounds,
		HeartbeatSlots:  hbSlots,
		Backlog:         backlog,
		LeaderCPU:       maxCPU,
		Breakdown:       tr.Summary(),
		PeakBacklog:     peakBacklog,
		PeakQueueBytes:  group.PeakQueueBytes(),
	}, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E8 (scaling study — cluster size and COP parallelism).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E8",
		Title:  "scaling study: PBFT cluster size (N) and Reptor COP parallelism (K)",
		Figure: "beyond the paper: COP (Behl et al., Middleware '15) scaling axis",
		Knobs: []Knob{
			{"ns", "4,7,10", "4,7", 4, list},             // PBFT cluster sizes; f = (n-1)/3 each
			{"ks", "1,2,4,8", "1,2", 1, list},            // COP instance counts on the cop_n group
			{"payloads_kb", "1,16", "1", 1, list},        // PBFT-axis payload sweep
			{"cop_payloads_kb", "1,16,64", "1", 1, list}, // COP-axis payloads (largest shows the crossover)
			{"cop_n", "4", "", 4, scalar},                // 3f+1 with f >= 1
			{"requests", "80", "30", 1, scalar},
			{"warmup", "10", "5", 0, scalar},
			{"window", "16", "", 1, scalar},
			{"clients", "4", "2", 1, scalar},
			{"batch", "8", "", 1, scalar},
			{"hb_us", "100", "", 1, scalar},      // adaptive heartbeat floor, µs
			{"hb_max_us", "4000", "", 1, scalar}, // adaptive heartbeat backoff ceiling, µs
		},
		Check: func(v KnobValues) error {
			if v.Int("hb_max_us") < v.Int("hb_us") {
				return fmt.Errorf("needs hb_us <= hb_max_us, got %d/%d", v.Int("hb_us"), v.Int("hb_max_us"))
			}
			return nil
		},
		Run: runE8,
	})
}

// e8Transports are the two backends every E8 sweep runs on.
var e8Transports = []transport.Kind{transport.KindRDMA, transport.KindTCP}

// e8Label shortens the backend name for series labels.
func e8Label(kind transport.Kind) string {
	if kind == transport.KindRDMA {
		return "RUBIN"
	}
	return "NIO"
}

func runE8(rc RunContext, v KnobValues, res *metrics.Result) error {
	requests, warmup, window := v.Int("requests"), v.Int("warmup"), v.Int("window")
	batch, clients, copN := v.Int("batch"), v.Int("clients"), v.Int("cop_n")
	// Axis 1: PBFT agreement vs cluster size (f scales with N).
	for _, kind := range e8Transports {
		for _, kb := range v.Ints("payloads_kb") {
			name := fmt.Sprintf("PBFT %s %dKB", e8Label(kind), kb)
			mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "replicas")
			p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "replicas")
			tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "replicas")
			bd := addBreakdownSeries(res, name, string(kind), "replicas")
			for _, n := range v.Ints("ns") {
				cfg := BFTConfig{
					Kind: kind, Payload: kb << 10,
					Requests: requests, Warmup: warmup, Window: window,
					Batch: batch, N: n, F: (n - 1) / 3, Clients: clients,
					Seed: rc.Seed, Trace: rc.Trace,
				}
				r, err := RunBFT(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("PBFT N=%d %s %dKB: %w", n, kind, kb, err)
				}
				mean.Add(float64(n), r.MeanLat.Micros())
				p99.Add(float64(n), r.P99Lat.Micros())
				tput.Add(float64(n), r.Throughput)
				bd.observe(float64(n), r.Breakdown)
			}
		}
	}
	// Axis 2: Reptor COP ordering vs instance count on a fixed group. The
	// per-K heartbeat and CPU series document *why* the throughput curve
	// bends: K parallel leaders split the ordering CPU, while the
	// adaptive/batched heartbeat keeps the merge's hole-filling cost from
	// growing with K.
	for _, kind := range e8Transports {
		for _, kb := range v.Ints("cop_payloads_kb") {
			name := fmt.Sprintf("COP %s %dKB", e8Label(kind), kb)
			mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "instances")
			p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "instances")
			tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "instances")
			hb := res.AddSeries(name, metrics.MetricHeartbeatSlots, "count", string(kind), "instances")
			cpu := res.AddSeries(name, metrics.MetricLeaderCPU, "utilization", string(kind), "instances")
			bd := addBreakdownSeries(res, name, string(kind), "instances")
			mw := res.AddSeries(name, metrics.MetricMergeWait, "us", string(kind), "instances")
			for _, ki := range v.Ints("ks") {
				cfg := COPConfig{
					Kind: kind, Instances: ki, Payload: kb << 10,
					Requests: requests, Warmup: warmup, Window: window,
					Batch: batch, N: copN, F: (copN - 1) / 3, Clients: clients,
					Seed:           rc.Seed,
					HeartbeatDelay: sim.Time(v.Int("hb_us")) * sim.Microsecond,
					HeartbeatMax:   sim.Time(v.Int("hb_max_us")) * sim.Microsecond,
					Trace:          rc.Trace,
				}
				r, err := RunCOP(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("COP K=%d %s %dKB: %w", ki, kind, kb, err)
				}
				if r.Backlog != 0 {
					return fmt.Errorf("COP K=%d %s %dKB: executor stalled with %d committed-but-unmerged batches",
						ki, kind, kb, r.Backlog)
				}
				mean.Add(float64(ki), r.MeanLat.Micros())
				p99.Add(float64(ki), r.P99Lat.Micros())
				tput.Add(float64(ki), r.Throughput)
				hb.Add(float64(ki), float64(r.HeartbeatSlots))
				cpu.Add(float64(ki), r.LeaderCPU)
				bd.observe(float64(ki), r.Breakdown)
				mw.Add(float64(ki), r.Breakdown.MergeWait.Micros())
			}
		}
	}
	return nil
}
