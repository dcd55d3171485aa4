package bench

import (
	"fmt"
	"math/rand"
	"slices"

	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// ShardTrafficConfig parameterizes one point of experiment E10: a mixed
// workload (single-key operations, scans and multi-key transactions)
// driven through routers against a sharded deployment of S independent
// consensus groups. CrossPct controls what share of the transactions is
// forced to span two shards — those commit through 2PC over consensus —
// while the rest stay on one shard's one-phase fast path. Every
// operation is recorded and the history must pass the atomicity plus
// per-key linearizability check, so each E10 point doubles as a
// correctness proof of the sharded commit path.
type ShardTrafficConfig struct {
	Kind      transport.Kind
	Shards    int
	N, F      int
	Users     int // logical users
	Conns     int // routers the users share
	Keys      int // keyspace size
	ValueSize int // written-value padding, bytes
	Ops       int // measured operations
	Warmup    int // unmeasured leading operations
	Mix       workload.Mix
	CrossPct  int // share of transactions forced cross-shard, percent
	Zipf100   int // Zipf theta ×100 over the keyspace; 0 = uniform
	Arrival   workload.Arrival
	Seed      int64
	Trace     *obs.Tracer
}

// ShardTrafficResult is one measurement point of E10.
type ShardTrafficResult struct {
	P50, P90, P99, P999 sim.Time
	Mean                sim.Time
	Goodput             float64 // measured completions per second
	CommittedGoodput    float64 // goodput excluding aborted transactions
	Completed           int
	Aborted             int // transactions lost to no-wait conflicts
	HistoryOps          int
	Breakdown           obs.Summary
	PeakQueueBytes      int
	CrossShardTxns      uint64 // transactions committed through 2PC
	LockRetries         uint64 // LOCKED resubmissions by the routers
}

// shardPools groups the workload's key names by owning shard. Every
// shard must own at least two keys (a transaction needs two distinct
// same-shard keys); hash partitioning makes that overwhelmingly likely
// for keys >> shards, and the caller errors out otherwise.
func shardPools(keys, shards int) ([][]string, error) {
	pools := make([][]string, shards)
	for i := 0; i < keys; i++ {
		k := workload.KeyName(i)
		s := kvstore.PartitionKey(k, shards)
		pools[s] = append(pools[s], k)
	}
	for s, pool := range pools {
		if len(pool) < 2 {
			return nil, fmt.Errorf("bench: shard %d owns %d of %d keys; raise keys or lower shards",
				s, len(pool), keys)
		}
	}
	return pools, nil
}

// crossPick builds the transaction key picker: with probability
// CrossPct% (and more than one shard) the two keys are drawn from two
// different shards' pools, otherwise both from one shard's. The picker
// draws only from the driver's private random source, preserving run
// determinism.
func crossPick(pools [][]string, crossPct int) func(r *rand.Rand) (string, string) {
	return func(r *rand.Rand) (string, string) {
		if len(pools) > 1 && r.Intn(100) < crossPct {
			s1 := r.Intn(len(pools))
			s2 := r.Intn(len(pools) - 1)
			if s2 >= s1 {
				s2++
			}
			return pools[s1][r.Intn(len(pools[s1]))], pools[s2][r.Intn(len(pools[s2]))]
		}
		s := r.Intn(len(pools))
		pool := pools[s]
		a := r.Intn(len(pool))
		b := r.Intn(len(pool) - 1)
		if b >= a {
			b++
		}
		return pool[a], pool[b]
	}
}

// RunShardTraffic drives one workload configuration against a sharded
// deployment to completion, verifies the run was healthy (no send
// faults, no dangling invocations, no 2PC protocol errors) and that the
// history passes the atomicity plus per-key linearizability check, and
// returns the latency and committed-throughput measurements.
func RunShardTraffic(cfg ShardTrafficConfig, params model.Params) (ShardTrafficResult, error) {
	if cfg.CrossPct < 0 || cfg.CrossPct > 100 {
		return ShardTrafficResult{}, fmt.Errorf("bench: cross-shard share %d%% out of range", cfg.CrossPct)
	}
	pools, err := shardPools(cfg.Keys, cfg.Shards)
	if err != nil {
		return ShardTrafficResult{}, err
	}
	var chooser workload.KeyChooser = workload.NewUniform(cfg.Keys)
	if cfg.Zipf100 > 0 {
		chooser = workload.NewZipf(cfg.Keys, float64(cfg.Zipf100)/100)
	}
	wcfg := workload.Config{
		Users: cfg.Users, Conns: cfg.Conns,
		Ops: cfg.Ops, Warmup: cfg.Warmup,
		Keys: chooser, Mix: cfg.Mix, Arrival: cfg.Arrival,
		ValueSize: cfg.ValueSize, Seed: cfg.Seed,
		TxnPick: crossPick(pools, cfg.CrossPct),
	}

	tr := benchTracer(cfg.Trace, fmt.Sprintf("E10 S=%d cross=%d%% %s N=%d users=%d conns=%d seed=%d",
		cfg.Shards, cfg.CrossPct, cfg.Kind, cfg.N, cfg.Users, cfg.Conns, cfg.Seed))

	scfg := shard.DefaultConfig()
	scfg.Shards = cfg.Shards
	scfg.PBFT.N, scfg.PBFT.F = cfg.N, cfg.F
	dep, err := shard.NewKV(cfg.Kind, scfg, params, cfg.Seed)
	if err != nil {
		return ShardTrafficResult{}, err
	}
	if err := dep.Start(); err != nil {
		return ShardTrafficResult{}, err
	}
	dep.SetTracer(tr)
	routers := make([]*shard.Router, cfg.Conns)
	for i := range routers {
		if routers[i], err = dep.AddRouter(); err != nil {
			return ShardTrafficResult{}, err
		}
	}
	var meshes []*msgnet.Mesh
	for _, cl := range dep.Clusters {
		meshes = append(meshes, cl.Meshes...)
	}
	startSamplers(tr, dep.Loop, meshes, nil)

	d, err := workload.New(dep.Loop, wcfg, func(conn int, op []byte, done func([]byte)) string {
		return routers[conn].InvokeOp(op, done)
	})
	if err != nil {
		return ShardTrafficResult{}, err
	}
	d.SetTracer(tr)
	if err := d.Run(); err != nil {
		return ShardTrafficResult{}, err
	}
	if n := dep.SendFaults(); n != 0 {
		return ShardTrafficResult{}, fmt.Errorf("bench: %d send faults on a healthy network", n)
	}
	for i, r := range routers {
		if err := r.Errs(); err != nil {
			return ShardTrafficResult{}, fmt.Errorf("bench: router %d: %w", i, err)
		}
		if n := r.Outstanding(); n != 0 {
			return ShardTrafficResult{}, fmt.Errorf("bench: router %d left %d operations outstanding", i, n)
		}
	}
	if err := d.History().Check(); err != nil {
		return ShardTrafficResult{}, err
	}
	rec := d.Latencies()
	r := ShardTrafficResult{
		P50: rec.Percentile(50), P90: rec.Percentile(90),
		P99: rec.Percentile(99), P999: rec.Percentile(99.9),
		Mean:             rec.Mean(),
		Goodput:          d.Goodput(),
		CommittedGoodput: d.CommittedGoodput(),
		Completed:        d.Completed(),
		Aborted:          d.Aborted(),
		HistoryOps:       d.History().Len(),
		Breakdown:        tr.Summary(),
		PeakQueueBytes:   dep.PeakQueueBytes(),
	}
	for _, rt := range routers {
		r.CrossShardTxns += rt.CrossShardTxns()
		r.LockRetries += rt.Retries()
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E10 (shard scale-out under an atomicity oracle).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E10",
		Title:  "shard scale-out: committed throughput vs shard count and cross-shard transaction share",
		Figure: "beyond the paper: keyspace partitioning over independent consensus groups with 2PC-over-consensus",
		// The full-mode load (users, conns) is sized to saturate a single
		// group with headroom for eight: the scaling curve must measure
		// the shards, not the client pool. 16 routers keep the front-end
		// off the critical path up to S=8.
		Knobs: []Knob{
			{"shards", "1,2,4,8", "1,2", 1, list},     // shard counts of the scaling sweep
			{"cross_pcts", "0,1,10", "0,10", 0, list}, // cross-shard transaction shares, percent
			{"n", "4", "", 4, scalar},                 // 3f+1 with f >= 1, per shard
			{"users", "512", "24", 1, scalar},
			{"conns", "16", "2", 1, scalar},
			{"keys", "256", "64", 2, scalar}, // every shard owns >= 2 keys; see Check
			{"ops", "1500", "60", 1, scalar},
			{"warmup", "150", "10", 0, scalar},
			{"value_bytes", "128", "", 0, scalar},
			{"window", "1", "", 1, scalar}, // closed-loop outstanding per user
			{"read_pct", "40", "", 0, scalar},
			{"scan_pct", "5", "", 0, scalar},
			{"delete_pct", "5", "", 0, scalar},
			{"txn_pct", "20", "", 1, scalar},
		},
		Check: checkE10,
		Run:   runE10,
	})
}

func checkE10(v KnobValues) error {
	if err := checkConns(v); err != nil {
		return err
	}
	mix := e10Mix(v)
	if mix.WritePct < 0 {
		return fmt.Errorf("mix read=%d + scan=%d + delete=%d + txn=%d exceeds 100",
			mix.ReadPct, mix.ScanPct, mix.DeletePct, mix.TxnPct)
	}
	for _, c := range v.Ints("cross_pcts") {
		if c > 100 {
			return fmt.Errorf("cross-shard share %d%% out of range", c)
		}
	}
	// Every shard of the largest deployment must own at least two keys
	// (see shardPools); fail at knob time, not mid-sweep.
	_, err := shardPools(v.Int("keys"), slices.Max(v.Ints("shards")))
	return err
}

// e10Mix is the operation mix the knobs set; writes take the remainder.
func e10Mix(v KnobValues) workload.Mix {
	m := workload.Mix{
		ReadPct: v.Int("read_pct"), ScanPct: v.Int("scan_pct"),
		DeletePct: v.Int("delete_pct"), TxnPct: v.Int("txn_pct"),
	}
	m.WritePct = 100 - m.ReadPct - m.ScanPct - m.DeletePct - m.TxnPct
	return m
}

// e10Series bundles the series one E10 sweep combo reports: the
// percentile/goodput bundle, committed goodput (the headline scaling
// curve), the abort/2PC/retry counters, the mean latency with its phase
// breakdown, the 2PC phase waits and the send-queue high watermark.
type e10Series struct {
	ps       metrics.PercentileSeries
	mean     *metrics.ResultSeries
	bd       breakdownSeries
	commit   *metrics.ResultSeries
	aborted  *metrics.ResultSeries
	cross    *metrics.ResultSeries
	retries  *metrics.ResultSeries
	prepWait *metrics.ResultSeries
	commWait *metrics.ResultSeries
	peakQ    *metrics.ResultSeries
}

func addE10Series(res *metrics.Result, name, transport, xLabel string) e10Series {
	return e10Series{
		ps:       res.AddPercentileSeries(name, transport, xLabel),
		mean:     res.AddSeries(name, metrics.MetricLatencyMean, "us", transport, xLabel),
		bd:       addBreakdownSeries(res, name, transport, xLabel),
		commit:   res.AddSeries(name, metrics.MetricCommittedGoodput, "op/s", transport, xLabel),
		aborted:  res.AddSeries(name, metrics.MetricAbortedTxns, "count", transport, xLabel),
		cross:    res.AddSeries(name, metrics.MetricCrossShardTxns, "count", transport, xLabel),
		retries:  res.AddSeries(name, metrics.MetricLockRetries, "count", transport, xLabel),
		prepWait: res.AddSeries(name, metrics.MetricPrepareWait, "us", transport, xLabel),
		commWait: res.AddSeries(name, metrics.MetricCommitWait, "us", transport, xLabel),
		peakQ:    res.AddSeries(name, metrics.MetricPeakQueueBytes, "bytes", transport, xLabel),
	}
}

func (s e10Series) observe(x float64, r ShardTrafficResult) {
	s.ps.Observe(x, r.P50, r.P90, r.P99, r.P999, r.Goodput)
	s.mean.Add(x, r.Mean.Micros())
	s.bd.observe(x, r.Breakdown)
	s.commit.Add(x, r.CommittedGoodput)
	s.aborted.Add(x, float64(r.Aborted))
	s.cross.Add(x, float64(r.CrossShardTxns))
	s.retries.Add(x, float64(r.LockRetries))
	s.prepWait.Add(x, r.Breakdown.PrepareWait.Micros())
	s.commWait.Add(x, r.Breakdown.CommitWait.Micros())
	s.peakQ.Add(x, float64(r.PeakQueueBytes))
}

func runE10(rc RunContext, v KnobValues, res *metrics.Result) error {
	mix := e10Mix(v)
	for _, kind := range e8Transports {
		for _, cross := range v.Ints("cross_pcts") {
			name := fmt.Sprintf("scale cross=%d%% %s", cross, e8Label(kind))
			ss := addE10Series(res, name, string(kind), "shards")
			for _, shards := range v.Ints("shards") {
				cfg := ShardTrafficConfig{
					Kind: kind, Shards: shards,
					N: v.Int("n"), F: (v.Int("n") - 1) / 3,
					Users: v.Int("users"), Conns: v.Int("conns"), Keys: v.Int("keys"),
					ValueSize: v.Int("value_bytes"), Ops: v.Int("ops"), Warmup: v.Int("warmup"),
					Mix: mix, CrossPct: cross,
					Arrival: workload.Closed(v.Int("window"), 0),
					Seed:    rc.Seed, Trace: rc.Trace,
				}
				r, err := RunShardTraffic(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("shards=%d cross=%d %s: %w", shards, cross, kind, err)
				}
				ss.observe(float64(shards), r)
			}
		}
	}
	return nil
}
