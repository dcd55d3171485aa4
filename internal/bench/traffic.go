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
	"rubin/internal/workload"
)

// TrafficConfig parameterizes one point of experiment E9: a workload
// (key skew, operation mix, arrival model) driven against either a PBFT
// cluster (Instances == 0) or a Reptor COP group (Instances == K) over
// one transport backend. Logical users are multiplexed over a bounded
// pool of client connections, every operation is recorded, and the
// history is checked for per-key register linearizability — a failed
// check fails the run, so every E9 point doubles as a correctness proof.
type TrafficConfig struct {
	Kind      transport.Kind
	Instances int // 0 = plain PBFT cluster; K >= 1 = Reptor COP group
	N, F      int
	Users     int // logical users
	Conns     int // client connections the users share
	Keys      int // keyspace size
	ValueSize int // written-value padding, bytes
	Ops       int // measured operations
	Warmup    int // unmeasured leading operations
	Mix       workload.Mix
	Zipf100   int // Zipf theta ×100 over the keyspace; 0 = uniform
	Arrival   workload.Arrival
	Seed      int64
	// BatchSize, when positive, overrides the protocol's default
	// agreement batch size (E11 sweeps it; zero keeps the default).
	BatchSize int
	// ReadFastPath enables the PBFT read-only optimization: single-key
	// reads are multicast and accepted on 2F+1 matching tentative
	// replies, falling back to the ordered path after ReadTimeout
	// (default 2ms). Off by default — E9 points are unaffected.
	ReadFastPath bool
	ReadTimeout  sim.Time
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// TrafficResult is one measurement point of E9.
type TrafficResult struct {
	P50, P90, P99, P999 sim.Time // latency percentiles, arrival to reply
	Mean                sim.Time // mean latency (the breakdown partitions it)
	Goodput             float64  // measured completions per second
	Completed           int
	HistoryOps          int
	// Breakdown attributes the mean latency to protocol phases;
	// Breakdown.Total equals Mean up to integer-mean rounding.
	Breakdown obs.Summary
	// PeakQueueBytes is the deepest msgnet send queue any replica saw.
	PeakQueueBytes int
	// COP-only executor health counters (zero for plain PBFT): heartbeat
	// fill slots summed across nodes, the largest adaptive heartbeat delay
	// any instance backed off to, and the deepest committed-but-unmerged
	// backlog any node's executor held at once.
	HeartbeatSlots    uint64
	HeartbeatDelayMax sim.Time
	PeakBacklog       int
	// Read fast-path counters summed across client connections (zero
	// unless ReadFastPath is set): reads served by 2F+1 matching
	// tentative replies, and reads that timed out or mismatched and
	// retried through the ordered path.
	FastReads     uint64
	FastFallbacks uint64
	// FastOps is the number of history operations the oracle saw tagged
	// as fast-path-served; the checkers treat them identically.
	FastOps int
}

// RunTraffic drives one workload configuration to completion, verifies
// the run was healthy (no send faults, no stalled executor, no dangling
// invocations) and linearizable, and returns the latency percentiles
// and goodput.
func RunTraffic(cfg TrafficConfig, params model.Params) (TrafficResult, error) {
	var chooser workload.KeyChooser = workload.NewUniform(cfg.Keys)
	if cfg.Zipf100 > 0 {
		chooser = workload.NewZipf(cfg.Keys, float64(cfg.Zipf100)/100)
	}
	wcfg := workload.Config{
		Users: cfg.Users, Conns: cfg.Conns,
		Ops: cfg.Ops, Warmup: cfg.Warmup,
		Keys: chooser, Mix: cfg.Mix, Arrival: cfg.Arrival,
		ValueSize: cfg.ValueSize, Seed: cfg.Seed,
	}

	sysLabel := "PBFT"
	if cfg.Instances > 0 {
		sysLabel = fmt.Sprintf("COP-%d", cfg.Instances)
	}
	tr := benchTracer(cfg.Trace, fmt.Sprintf("E9 %s %s N=%d users=%d conns=%d seed=%d",
		sysLabel, cfg.Kind, cfg.N, cfg.Users, cfg.Conns, cfg.Seed))

	readTimeout := cfg.ReadTimeout
	if readTimeout <= 0 {
		readTimeout = 2 * sim.Millisecond
	}

	var loop *sim.Loop
	var invoke workload.Invoker
	var finish func() error
	var health func(r *TrafficResult)
	var wireHooks func(d *workload.Driver)
	if cfg.Instances == 0 {
		pcfg := pbft.DefaultConfig()
		pcfg.N, pcfg.F = cfg.N, cfg.F
		if cfg.BatchSize > 0 {
			pcfg.BatchSize = cfg.BatchSize
		}
		cluster, err := pbft.NewCluster(cfg.Kind, pcfg, params, cfg.Seed,
			func(int) pbft.Application { return kvstore.New() })
		if err != nil {
			return TrafficResult{}, err
		}
		if err := cluster.Start(); err != nil {
			return TrafficResult{}, err
		}
		cluster.SetTracer(tr)
		cls := make([]*pbft.Client, cfg.Conns)
		for i := range cls {
			if cls[i], err = cluster.AddClient(); err != nil {
				return TrafficResult{}, err
			}
		}
		loop = cluster.Loop
		startSamplers(tr, loop, cluster.Meshes, nil)
		if cfg.ReadFastPath {
			for _, cl := range cls {
				cl.EnableReadFastPath(cluster.Loop, readTimeout)
			}
		}
		invoke = func(conn int, op []byte, done func([]byte)) string {
			if cfg.ReadFastPath {
				if code, _, _, err := kvstore.DecodeOp(op); err == nil && code == kvstore.OpGet {
					return cls[conn].InvokeRead(op, done)
				}
			}
			return cls[conn].Invoke(op, done)
		}
		wireHooks = func(d *workload.Driver) {
			for _, cl := range cls {
				cl.SetReadPathHook(d.NotePath)
			}
		}
		health = func(r *TrafficResult) {
			r.PeakQueueBytes = cluster.PeakQueueBytes()
			for _, cl := range cls {
				r.FastReads += cl.FastReads()
				r.FastFallbacks += cl.FastReadFallbacks()
			}
		}
		finish = func() error {
			if n := cluster.SendFaults(); n != 0 {
				return fmt.Errorf("bench: %d send faults on a healthy network", n)
			}
			for _, cl := range cls {
				if n := cl.Outstanding(); n != 0 {
					return fmt.Errorf("bench: client %d left %d invocations outstanding", cl.ID(), n)
				}
			}
			return nil
		}
	} else {
		gcfg := reptor.DefaultConfig()
		gcfg.Instances = cfg.Instances
		gcfg.PBFT.N, gcfg.PBFT.F = cfg.N, cfg.F
		if cfg.BatchSize > 0 {
			gcfg.PBFT.BatchSize = cfg.BatchSize
		}
		group, err := reptor.NewGroup(cfg.Kind, gcfg, params, cfg.Seed,
			func(int) pbft.Application { return kvstore.New() })
		if err != nil {
			return TrafficResult{}, err
		}
		if err := group.Start(); err != nil {
			return TrafficResult{}, err
		}
		group.SetTracer(tr)
		if cfg.ReadFastPath {
			group.EnableReadFastPath(readTimeout)
		}
		cls := make([]*reptor.Client, cfg.Conns)
		for i := range cls {
			if cls[i], err = group.AddClient(); err != nil {
				return TrafficResult{}, err
			}
		}
		loop = group.Loop
		startSamplers(tr, loop, group.Meshes, group.Executors)
		// COP routes by the state-machine key, so one instance orders
		// every operation of a key; scans fan out as partition-filtered
		// sub-scans and merge locally (see reptor.Client.InvokeOp).
		invoke = func(conn int, op []byte, done func([]byte)) string {
			return cls[conn].InvokeOp(op, done)
		}
		wireHooks = func(d *workload.Driver) {
			for _, cl := range cls {
				cl.SetReadPathHook(d.NotePath)
			}
		}
		health = func(r *TrafficResult) {
			r.PeakQueueBytes = group.PeakQueueBytes()
			for _, cl := range cls {
				r.FastReads += cl.FastReads()
				r.FastFallbacks += cl.FastReadFallbacks()
			}
			for _, ex := range group.Executors {
				r.HeartbeatSlots += ex.HeartbeatSlots()
				if pb := ex.PeakBacklog(); pb > r.PeakBacklog {
					r.PeakBacklog = pb
				}
				for i := 0; i < cfg.Instances; i++ {
					if d := ex.HeartbeatDelay(i); d > r.HeartbeatDelayMax {
						r.HeartbeatDelayMax = d
					}
				}
			}
		}
		finish = func() error {
			if n := group.SendFaults(); n != 0 {
				return fmt.Errorf("bench: %d send faults on a healthy network", n)
			}
			for i, ex := range group.Executors {
				if b := ex.Backlog(); b != 0 {
					return fmt.Errorf("bench: node %d executor stalled with %d committed-but-unmerged batches", i, b)
				}
			}
			for i, cl := range cls {
				if n := cl.Outstanding(); n != 0 {
					return fmt.Errorf("bench: client %d left %d invocations outstanding", i, n)
				}
			}
			return nil
		}
	}

	d, err := workload.New(loop, wcfg, invoke)
	if err != nil {
		return TrafficResult{}, err
	}
	d.SetTracer(tr)
	if cfg.ReadFastPath {
		wireHooks(d)
	}
	if err := d.Run(); err != nil {
		return TrafficResult{}, err
	}
	if err := finish(); err != nil {
		return TrafficResult{}, err
	}
	if err := d.History().Check(); err != nil {
		return TrafficResult{}, err
	}
	rec := d.Latencies()
	r := TrafficResult{
		P50: rec.Percentile(50), P90: rec.Percentile(90),
		P99: rec.Percentile(99), P999: rec.Percentile(99.9),
		Mean:       rec.Mean(),
		Goodput:    d.Goodput(),
		Completed:  d.Completed(),
		HistoryOps: d.History().Len(),
		FastOps:    d.History().FastOps(),
		Breakdown:  tr.Summary(),
	}
	health(&r)
	return r, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E9 (traffic study under a linearizability oracle).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E9",
		Title:  "traffic study: arrival rate, key skew and operation mix under a linearizability oracle",
		Figure: "beyond the paper: YCSB-style open/closed-loop workloads over the replicated system",
		Knobs: []Knob{
			{"rates", "3000,8000,16000", "1500", 1, list}, // open-loop arrival rates, ops/s
			{"skews", "0,90,99", "99", 0, list},           // Zipf theta x100; 0 = uniform
			{"read_pcts", "0,45,90", "50", 0, list},       // read shares of the mix sweep
			{"ks", "1,4", "1", 1, list},                   // COP instance counts (PBFT always runs too)
			{"n", "4", "", 4, scalar},                     // 3f+1 with f >= 1
			{"users", "96", "24", 1, scalar},
			{"conns", "4", "2", 1, scalar},
			{"keys", "128", "32", 10, scalar},
			{"ops", "300", "60", 1, scalar},
			{"warmup", "30", "10", 0, scalar},
			{"value_bytes", "128", "", 0, scalar},
			{"window", "1", "", 1, scalar}, // closed-loop outstanding per user
			{"scan_pct", "5", "", 0, scalar},
			{"delete_pct", "5", "", 0, scalar},
			{"burst_us", "2000", "0", 0, scalar}, // on/off half-period of the burst sweep; 0 disables it
		},
		Check: checkE9,
		Run:   runE9,
	})
}

func checkE9(v KnobValues) error {
	if err := checkConns(v); err != nil {
		return err
	}
	for _, s := range v.Ints("skews") {
		if s >= 100 {
			return fmt.Errorf("skews are Zipf theta x100 in [0, 100), got %d", s)
		}
	}
	// Every read share the sweeps use — the read_pcts axis and the fixed
	// e9MidRead of the rate/burst/skew sweeps — must leave the mix a
	// valid percentage split.
	scan, del := v.Int("scan_pct"), v.Int("delete_pct")
	for _, r := range append([]int{e9MidRead}, v.Ints("read_pcts")...) {
		if r+scan+del > 100 {
			return fmt.Errorf("mix read=%d + scan=%d + delete=%d exceeds 100", r, scan, del)
		}
	}
	return nil
}

// checkConns enforces the client-pool rule of the workload experiments
// (E9, E10, E11): users share the connections, so there are no more
// connections than users.
func checkConns(v KnobValues) error {
	if v.Int("conns") > v.Int("users") {
		return fmt.Errorf("needs 1 <= conns <= users, got %d/%d", v.Int("conns"), v.Int("users"))
	}
	return nil
}

// e9System is one system-under-test of the E9 sweeps.
type e9System struct {
	label     string
	instances int // 0 = PBFT
}

// e9MidRead is the fixed read share of the rate, burst and skew sweeps.
const e9MidRead = 45

// e9Mix builds the operation mix for one read share. Scans run on COP
// too: they fan out as partition-filtered sub-scans, one per instance,
// whose partial results are deterministic because only instance k's
// order ever mutates partition-k keys (see reptor.Client.InvokeOp).
func e9Mix(readPct, scanPct, deletePct int) workload.Mix {
	m := workload.Mix{ReadPct: readPct, ScanPct: scanPct, DeletePct: deletePct}
	m.WritePct = 100 - m.ReadPct - m.ScanPct - m.DeletePct
	return m
}

// e9Series bundles every series one E9 sweep combo reports: the
// percentile/goodput bundle, the mean latency with its phase breakdown,
// the msgnet send-queue high watermark, and — for COP systems only — the
// executor health counters (heartbeat fill slots, the adaptive-delay
// ceiling reached, the peak merge backlog) plus the commit-to-merge wait.
type e9Series struct {
	ps    metrics.PercentileSeries
	mean  *metrics.ResultSeries
	bd    breakdownSeries
	peakQ *metrics.ResultSeries
	// COP-only (nil for plain PBFT):
	hbSlots *metrics.ResultSeries
	hbDelay *metrics.ResultSeries
	backlog *metrics.ResultSeries
	mergeW  *metrics.ResultSeries
}

func addE9Series(res *metrics.Result, name, transport, xLabel string, cop bool) e9Series {
	s := e9Series{
		ps:    res.AddPercentileSeries(name, transport, xLabel),
		mean:  res.AddSeries(name, metrics.MetricLatencyMean, "us", transport, xLabel),
		bd:    addBreakdownSeries(res, name, transport, xLabel),
		peakQ: res.AddSeries(name, metrics.MetricPeakQueueBytes, "bytes", transport, xLabel),
	}
	if cop {
		s.hbSlots = res.AddSeries(name, metrics.MetricHeartbeatSlots, "count", transport, xLabel)
		s.hbDelay = res.AddSeries(name, metrics.MetricHeartbeatDelay, "us", transport, xLabel)
		s.backlog = res.AddSeries(name, metrics.MetricPeakBacklog, "count", transport, xLabel)
		s.mergeW = res.AddSeries(name, metrics.MetricMergeWait, "us", transport, xLabel)
	}
	return s
}

func (s e9Series) observe(x float64, r TrafficResult) {
	s.ps.Observe(x, r.P50, r.P90, r.P99, r.P999, r.Goodput)
	s.mean.Add(x, r.Mean.Micros())
	s.bd.observe(x, r.Breakdown)
	s.peakQ.Add(x, float64(r.PeakQueueBytes))
	if s.hbSlots != nil {
		s.hbSlots.Add(x, float64(r.HeartbeatSlots))
		s.hbDelay.Add(x, r.HeartbeatDelayMax.Micros())
		s.backlog.Add(x, float64(r.PeakBacklog))
		s.mergeW.Add(x, r.Breakdown.MergeWait.Micros())
	}
}

// trafficBase is the TrafficConfig the workload experiments (E9, E11)
// share across every sweep point: the cluster shape, client pool and
// keyspace their knobs set.
func trafficBase(rc RunContext, v KnobValues, kind transport.Kind) TrafficConfig {
	return TrafficConfig{
		Kind: kind,
		N:    v.Int("n"), F: (v.Int("n") - 1) / 3,
		Users: v.Int("users"), Conns: v.Int("conns"), Keys: v.Int("keys"),
		ValueSize: v.Int("value_bytes"), Ops: v.Int("ops"), Warmup: v.Int("warmup"),
		Seed: rc.Seed, Trace: rc.Trace,
	}
}

func runE9(rc RunContext, v KnobValues, res *metrics.Result) error {
	systems := []e9System{{"PBFT", 0}}
	for _, ki := range v.Ints("ks") {
		systems = append(systems, e9System{fmt.Sprintf("COP-%d", ki), ki})
	}
	base := func(kind transport.Kind, sys e9System) TrafficConfig {
		cfg := trafficBase(rc, v, kind)
		cfg.Instances = sys.instances
		return cfg
	}
	scan, del, window := v.Int("scan_pct"), v.Int("delete_pct"), v.Int("window")
	// Sweep 1 (+2): open-loop arrival rate, Poisson — and, when enabled,
	// the same rates as on/off bursts — at fixed skew and mix.
	type arrivalSweep struct {
		prefix  string
		arrival func(rate int) workload.Arrival
	}
	sweeps := []arrivalSweep{
		{"rate", func(rate int) workload.Arrival { return workload.Poisson(float64(rate)) }},
	}
	if burstUS := v.Int("burst_us"); burstUS > 0 {
		burst := sim.Time(burstUS) * sim.Microsecond
		sweeps = append(sweeps, arrivalSweep{"burst", func(rate int) workload.Arrival {
			return workload.Bursts(float64(rate), burst, burst)
		}})
	}
	for _, sweep := range sweeps {
		for _, kind := range e8Transports {
			for _, sys := range systems {
				name := fmt.Sprintf("%s %s %s", sweep.prefix, sys.label, e8Label(kind))
				ss := addE9Series(res, name, string(kind), "rate_ops_s", sys.instances > 0)
				for _, rate := range v.Ints("rates") {
					cfg := base(kind, sys)
					cfg.Mix = e9Mix(e9MidRead, scan, del)
					cfg.Zipf100 = 99
					cfg.Arrival = sweep.arrival(rate)
					r, err := RunTraffic(cfg, rc.Model)
					if err != nil {
						return fmt.Errorf("%s=%d %s %s: %w", sweep.prefix, rate, sys.label, kind, err)
					}
					ss.observe(float64(rate), r)
				}
			}
		}
	}
	// Sweep 3: key skew under closed-loop load.
	for _, kind := range e8Transports {
		for _, sys := range systems {
			name := fmt.Sprintf("skew %s %s", sys.label, e8Label(kind))
			ss := addE9Series(res, name, string(kind), "zipf_theta_x100", sys.instances > 0)
			for _, skew := range v.Ints("skews") {
				cfg := base(kind, sys)
				cfg.Mix = e9Mix(e9MidRead, scan, del)
				cfg.Zipf100 = skew
				cfg.Arrival = workload.Closed(window, 0)
				r, err := RunTraffic(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("skew=%d %s %s: %w", skew, sys.label, kind, err)
				}
				ss.observe(float64(skew), r)
			}
		}
	}
	// Sweep 4: read share under closed-loop load at fixed skew.
	for _, kind := range e8Transports {
		for _, sys := range systems {
			name := fmt.Sprintf("mix %s %s", sys.label, e8Label(kind))
			ss := addE9Series(res, name, string(kind), "read_pct", sys.instances > 0)
			for _, readPct := range v.Ints("read_pcts") {
				cfg := base(kind, sys)
				cfg.Mix = e9Mix(readPct, scan, del)
				cfg.Zipf100 = 99
				cfg.Arrival = workload.Closed(window, 0)
				r, err := RunTraffic(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("read_pct=%d %s %s: %w", readPct, sys.label, kind, err)
				}
				ss.observe(float64(readPct), r)
			}
		}
	}
	return nil
}
