package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"time"

	"rubin/internal/chaos"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// Workload is one named traffic definition of the benchmark.
type Workload struct {
	Name      string
	Kind      transport.Kind
	ValueSize int
	ReadPct   int     // the rest are writes
	Zipf      float64 // Zipf theta over Keys; 0 = uniform
	Keys      int
	Users     int
	Conns     int
	Rate      float64 // nominal open-loop Poisson rate, virtual ops/s
	Ops       int     // measured operations per scenario
	Warmup    int     // unmeasured leading operations per scenario
	// LeaderCrash crashes replica 0, the view-0 leader, CrashAt into the
	// traffic and restarts it once a live replica reaches the checkpoint
	// phase at or after RestartAt. Without it, the recovery probe
	// restarts a backup after the traffic drains.
	LeaderCrash        bool
	CrashAt, RestartAt sim.Time
}

// workloads are the benchmark's named workloads. BENCHMARK.json gates
// the first three; crash-recovery reproduces the leader-crash livelock
// described in the README and joins them once that is fixed.
var workloads = []Workload{
	{
		Name: "kv-rubin", Kind: transport.KindRDMA,
		ValueSize: 1024, ReadPct: 50, Zipf: 0.9, Keys: 1024,
		Users: 96, Conns: 4, Rate: 8000, Ops: 8000, Warmup: 500,
	},
	{
		Name: "kv-nio", Kind: transport.KindTCP,
		ValueSize: 1024, ReadPct: 50, Zipf: 0.9, Keys: 1024,
		Users: 96, Conns: 4, Rate: 8000, Ops: 8000, Warmup: 500,
	},
	{
		Name: "write-heavy", Kind: transport.KindTCP,
		ValueSize: 1024, ReadPct: 10, Keys: 4096,
		Users: 64, Conns: 4, Rate: 4000, Ops: 4000, Warmup: 500,
	},
	{
		Name: "crash-recovery", Kind: transport.KindRDMA,
		ValueSize: 1024, ReadPct: 10, Keys: 4096,
		Users: 64, Conns: 4, Rate: 4000, Ops: 3000, Warmup: 500,
		LeaderCrash: true, CrashAt: 150 * sim.Millisecond, RestartAt: 400 * sim.Millisecond,
	},
}

func workloadByName(name string) (Workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Virtual is the virtual-time outcome of one scenario plus the layer
// counters read from public accessors after it. It repeats exactly for
// a seed.
type Virtual struct {
	Rate      float64 `json:"rate"`
	Attempted int     `json:"attempted"`
	Completed int     `json:"completed"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	P999US    float64 `json:"p999_us"`
	// Offered is the realised arrival rate of the measured operations
	// and Goodput their completion rate; a growing backlog shows as
	// Goodput falling behind Offered.
	Offered float64 `json:"offered"`
	Goodput float64 `json:"goodput"`
	// OutageMS is the longest gap between consecutive committed replies
	// from the crash until the restarted replica caught up: the leader
	// crash under traffic on crash-recovery, the recovery probe's backup
	// crash elsewhere.
	OutageMS float64 `json:"outage_ms"`
	// CatchupMS is the time from a replica's restart until it has
	// executed the highest sequence any live replica had executed at
	// the restart.
	CatchupMS float64 `json:"catchup_ms"`
	// ProbeOps counts the closed-loop writes of the recovery probe.
	ProbeOps int `json:"probe_ops"`
	// InputDigest fingerprints the generated operations, so runs can
	// show that a seed fixes its inputs and another seed changes them.
	InputDigest string   `json:"input_digest"`
	Counters    Counters `json:"counters"`
}

// Counters are per-layer counts read from public accessors after the
// measured traffic drains, before any recovery probe; the state-transfer
// counts are read again after the probe.
type Counters struct {
	Events          uint64  `json:"events"` // loop events, samplers excluded
	WireBytes       uint64  `json:"wire_bytes"`
	Frames          uint64  `json:"frames"`
	LeaderCPUUS     float64 `json:"leader_cpu_us"`
	BackupCPUUS     float64 `json:"backup_cpu_us"` // mean over backups
	LeaderCPUWaitUS float64 `json:"leader_cpu_wait_us"`
	LeaderNICUS     float64 `json:"leader_nic_us"`
	LeaderExecuted  uint64  `json:"leader_executed"`
	PeakQueueBytes  int     `json:"peak_queue_bytes"`
	SendFaults      uint64  `json:"send_faults"`
	View            uint64  `json:"view"`
	StateTransfers  uint64  `json:"state_transfers"`
	TransferBytes   uint64  `json:"transfer_bytes"`
	CheckpointBytes uint64  `json:"checkpoint_bytes"`
	RetainedBytes   uint64  `json:"retained_bytes"`
	StateBytes      int     `json:"state_bytes"`
	// The latency breakdown of the breakdown-only tracer; zero when the
	// scenario ran untraced.
	QueueUS float64 `json:"queue_us"`
	OrderUS float64 `json:"order_us"`
	NetUS   float64 `json:"net_us"`
}

// Wall is the harness cost of one scenario on the host that ran it.
type Wall struct {
	SetupS         float64 `json:"setup_s"`
	RunS           float64 `json:"run_s"`
	CheckS         float64 `json:"check_s"`
	WallOpsPerS    float64 `json:"wall_ops_per_s"`
	HeapAfterSetup uint64  `json:"heap_after_setup"`
	AllocBytes     uint64  `json:"alloc_bytes"`
	GCCycles       uint32  `json:"gc_cycles"`
}

// Result is what one scenario reports. Gate is empty when every
// correctness check passed.
type Result struct {
	Virtual Virtual   `json:"virtual"`
	Wall    Wall      `json:"wall"`
	Lat     []float64 `json:"lat_us,omitempty"` // measured latencies, µs
	Gate    string    `json:"gate,omitempty"`
	// Layers holds the traced run's span and profile figures.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runOpts are the knobs one scenario takes beyond its workload.
type runOpts struct {
	seed  int64
	rate  float64 // overrides Workload.Rate when positive
	ops   int     // overrides Workload.Ops when positive
	fault bool    // run the crash arc or recovery probe (off for capacity probes)
	spans *spanLog
	// measure, when set, is called with true just before the traffic
	// starts and with false once the history check is done.
	measure func(begin bool)
	// corrupt flips one recorded read before the correctness gate, so
	// tests can show that the gate rejects a bad history.
	corrupt bool
}

// samplePeriod is the virtual interval at which the leader's CPU
// backlog is sampled. The sampler runs in every scenario, traced or
// not, so event counts and virtual results stay comparable.
const samplePeriod = 100 * sim.Microsecond

// probeLimit bounds the closed-loop writes of the recovery probe; two
// checkpoint intervals always suffice.
const probeLimit = 1000

// runScenario builds a PBFT N=4 group with a kvstore on every replica,
// drives the workload's open-loop traffic through its clients, passes
// the outcome through the correctness gate and reports virtual results,
// counters and wall cost. An error means the scenario could not run.
func runScenario(w Workload, o runOpts) (Result, error) {
	var res Result
	rate, ops := w.Rate, w.Ops
	if o.rate > 0 {
		rate = o.rate
	}
	if o.ops > 0 {
		ops = o.ops
	}
	sp := o.spans
	var tr *obs.Tracer
	if sp != nil {
		tr = obs.New(obs.Options{}) // breakdown only: queue/order/net
	}
	cfg := pbft.DefaultConfig()
	factory := func(int) pbft.Application {
		return &tracedStore{Store: kvstore.New(), spans: sp}
	}

	t0 := time.Now()
	s := sp.begin("pbft.NewCluster")
	cluster, err := pbft.NewCluster(w.Kind, cfg, model.Default(), o.seed, factory)
	sp.end(s)
	if err != nil {
		return res, fmt.Errorf("new cluster: %w", err)
	}
	s = sp.begin("pbft.Start")
	err = cluster.Start()
	sp.end(s)
	if err != nil {
		return res, fmt.Errorf("start: %w", err)
	}
	cluster.SetTracer(tr)
	cls := make([]*pbft.Client, w.Conns)
	s = sp.begin("pbft.AddClients")
	for i := range cls {
		if cls[i], err = cluster.AddClient(); err != nil {
			break
		}
	}
	sp.end(s)
	if err != nil {
		return res, fmt.Errorf("add client: %w", err)
	}
	res.Wall.SetupS = time.Since(t0).Seconds()
	res.Wall.HeapAfterSetup = readMem().HeapAlloc

	loop := cluster.Loop
	rc := &recovery{cluster: cluster, spans: sp, crashAt: -1, restartAt: -1, caughtUpAt: -1}
	if o.fault && w.LeaderCrash {
		rc.crash(w.CrashAt, 0)
		rc.restartAtPhase(w.RestartAt, 0)
	}

	// Reply times, recorded by wrapping the done callback each Invoke
	// receives; the gap scan below turns them into outage_ms.
	replies := make([]sim.Time, 0, ops+w.Warmup)
	invoke := func(conn int, op []byte, done func([]byte)) string {
		wrapped := func(r []byte) {
			replies = append(replies, loop.Now())
			done(r)
		}
		s := sp.begin("pbft.Client.Invoke")
		id := cls[conn].Invoke(op, wrapped)
		sp.endID(s, id)
		return id
	}
	var keys workload.KeyChooser = workload.NewUniform(w.Keys)
	if w.Zipf > 0 {
		keys = workload.NewZipf(w.Keys, w.Zipf)
	}
	d, err := workload.New(loop, workload.Config{
		Users: w.Users, Conns: w.Conns, Ops: ops, Warmup: w.Warmup,
		Keys: keys, Mix: workload.Mix{ReadPct: w.ReadPct, WritePct: 100 - w.ReadPct},
		Arrival: workload.Poisson(rate), ValueSize: w.ValueSize, Seed: o.seed,
	}, invoke)
	if err != nil {
		return res, err
	}
	d.SetTracer(tr)

	// The leader's CPU backlog, time-averaged by a pure-observer
	// sampler; the group stops re-arming once the traffic drains.
	nodes := replicaNodes(cluster)
	var waitSum sim.Time
	ticks := 0
	deadline := loop.Now() + 2*sim.Second + sim.Time(2*float64(ops+w.Warmup)/rate*float64(sim.Second))
	obs.NewSamplerGroup(loop).Every(samplePeriod, func(now sim.Time) {
		watchdog(now, deadline)
		waitSum += nodes[leaderIndex(cluster)].CPU.QueueDelay()
		ticks++
	})

	ev0 := loop.Processed()
	ms0 := readMem()
	if o.measure != nil {
		o.measure(true)
	}
	t4 := time.Now()
	s = sp.begin("workload.Driver.Run")
	runErr := bounded(d.Run)
	sp.end(s)
	t5 := time.Now()

	v := &res.Virtual
	v.Rate = rate
	v.Attempted = ops + w.Warmup
	v.Completed = d.Completed()
	v.InputDigest = inputDigest(d.History())
	c := &v.Counters
	c.Events = loop.Processed() - ev0 - uint64(ticks)
	if ticks > 0 {
		c.LeaderCPUWaitUS = (waitSum / sim.Time(ticks)).Micros()
	}
	readCounters(cluster, cls, c, tr)

	s = sp.begin("workload.History.Check")
	gateErr := gate(cluster, cls, d, o.corrupt, o.fault && w.LeaderCrash, runErr)
	sp.end(s)
	t6 := time.Now()
	if o.measure != nil {
		o.measure(false)
	}
	ms1 := readMem()
	res.Wall.RunS = t5.Sub(t4).Seconds()
	res.Wall.CheckS = t6.Sub(t5).Seconds()
	res.Wall.WallOpsPerS = float64(d.Completed()) / t6.Sub(t4).Seconds()
	res.Wall.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Wall.GCCycles = ms1.NumGC - ms0.NumGC

	rec := d.Latencies()
	v.P50US = rec.Percentile(50).Micros()
	v.P99US = rec.Percentile(99).Micros()
	v.P999US = rec.Percentile(99.9).Micros()
	v.Offered, v.Goodput = rates(d)
	res.Lat = latencies(d.History())

	faultReplies := replies // replies while a replica is down or recovering
	if gateErr == nil && o.fault && !w.LeaderCrash {
		// Recovery probe: with the traffic drained, crash the last
		// backup and restart it at the checkpoint phase while one
		// client writes probe keys in closed loop until it caught up.
		rc.crash(0, len(cluster.Replicas)-1)
		rc.restartAtPhase(0, len(cluster.Replicas)-1)
		faultReplies, gateErr = rc.probe(cls[0])
		v.ProbeOps = len(faultReplies)
	}
	if gateErr == nil && o.fault {
		if gateErr = rc.check(); gateErr == nil {
			gateErr = converged(cluster)
		}
		v.CatchupMS = ms(rc.caughtUpAt - rc.restartAt)
		v.OutageMS = ms(longestGap(faultReplies, rc.crashAt, rc.caughtUpAt))
	}
	for _, rep := range cluster.Replicas { // after the probe's transfers
		c.StateTransfers += rep.StateTransfers()
		c.TransferBytes += rep.StateBytesServed()
	}
	if gateErr != nil {
		res.Gate = gateErr.Error()
	}
	return res, nil
}

func ms(t sim.Time) float64 { return t.Seconds() * 1e3 }

// runaway is the panic value of a simulation still busy at its virtual
// deadline, such as a replica escalating view changes on its own.
type runaway struct{ at sim.Time }

// watchdog panics with runaway once now passes deadline. It runs in a
// sampler group, which stops ticking when only sampler ticks remain, so
// a simulation that drains in time never trips it.
func watchdog(now, deadline sim.Time) {
	if now > deadline {
		panic(runaway{at: now})
	}
}

// bounded runs fn, which runs the loop, and turns a runaway panic into
// an error.
func bounded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ra, ok := r.(runaway)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("simulation still busy at its deadline t=%v", ra.at)
		}
	}()
	return fn()
}

// replicaNodes returns the hosts of the replicas, in replica order.
func replicaNodes(c *pbft.Cluster) []*fabric.Node {
	nodes := make([]*fabric.Node, len(c.Replicas))
	for i := range nodes {
		nodes[i] = c.Network.Node(fmt.Sprintf("r%d", i))
	}
	return nodes
}

// leaderIndex returns the leader of the highest view any replica holds.
func leaderIndex(c *pbft.Cluster) int {
	var view uint64
	for _, rep := range c.Replicas {
		view = max(view, rep.View())
	}
	return int(view % uint64(len(c.Replicas)))
}

// readCounters fills the per-layer counters from public accessors.
func readCounters(cluster *pbft.Cluster, cls []*pbft.Client, c *Counters, tr *obs.Tracer) {
	nw := cluster.Network
	nodes := replicaNodes(cluster)
	add := func(a, b *fabric.Node) {
		if l := nw.Link(a, b); l != nil {
			c.WireBytes += l.Bytes()
			c.Frames += l.Frames()
		}
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			add(nodes[i], nodes[j])
		}
		for _, cl := range cls {
			add(nw.Node(fmt.Sprintf("client%d", cl.ID())), nodes[i])
		}
	}
	li := leaderIndex(cluster)
	c.LeaderCPUUS = nodes[li].CPU.BusyTotal().Micros()
	c.LeaderNICUS = nodes[li].NIC.BusyTotal().Micros()
	for i, n := range nodes {
		if i != li {
			c.BackupCPUUS += n.CPU.BusyTotal().Micros() / float64(len(nodes)-1)
		}
	}
	c.LeaderExecuted = cluster.Replicas[li].Executed()
	c.PeakQueueBytes = cluster.PeakQueueBytes()
	c.SendFaults = cluster.SendFaults()
	for _, rep := range cluster.Replicas {
		c.View = max(c.View, rep.View())
		_, b := rep.CheckpointStats()
		c.CheckpointBytes += b
		c.RetainedBytes += rep.RetainedStateBytes()
	}
	c.StateBytes = len(cluster.Apps[li].(*tracedStore).Store.MarshalState())
	if tr != nil {
		sum := tr.Summary()
		c.QueueUS, c.OrderUS, c.NetUS = sum.Queue.Micros(), sum.Order.Micros(), sum.Net.Micros()
	}
}

// rates returns the realised arrival rate and the completion rate of the
// measured operations, both in ops per virtual second.
func rates(d *workload.Driver) (offered, goodput float64) {
	var first, last sim.Time = -1, -1
	n := 0
	for _, op := range d.History().Ops() {
		if !op.Measured {
			continue
		}
		n++
		if first < 0 || op.Arrive < first {
			first = op.Arrive
		}
		last = max(last, op.Arrive)
	}
	if n < 2 || last <= first {
		return 0, d.Goodput()
	}
	return float64(n-1) / (last - first).Seconds(), d.Goodput()
}

// latencies returns the arrival-to-reply latency of every measured
// operation, in µs.
func latencies(h *workload.History) []float64 {
	var out []float64
	for _, op := range h.Ops() {
		if op.Measured {
			out = append(out, (op.Return - op.Arrive).Micros())
		}
	}
	return out
}

// longestGap returns the longest interval between consecutive reply
// times inside [start, end], counting from the window's start.
func longestGap(replies []sim.Time, start, end sim.Time) sim.Time {
	ts := make([]sim.Time, 0, len(replies))
	for _, t := range replies {
		if t >= start && t <= end {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	prev, worst := start, sim.Time(0)
	for _, t := range ts {
		worst = max(worst, t-prev)
		prev = t
	}
	return worst
}

// gate is the correctness gate on the workload's traffic: the history
// is linearizable and atomic and nothing is left outstanding. When no
// replica crashed during the traffic, there must also be no send fault
// and every replica must hold the same state.
func gate(cluster *pbft.Cluster, cls []*pbft.Client, d *workload.Driver, corrupt, crashed bool, runErr error) error {
	if runErr != nil {
		return runErr
	}
	h := d.History()
	if corrupt {
		h = corrupted(h)
	}
	if err := h.Check(); err != nil {
		return fmt.Errorf("history check: %w", err)
	}
	for _, cl := range cls {
		if n := cl.Outstanding(); n != 0 {
			return fmt.Errorf("client %d left %d invocations outstanding", cl.ID(), n)
		}
	}
	if crashed {
		return nil // sends to the crashed replica fail by design
	}
	if n := cluster.SendFaults(); n != 0 {
		return fmt.Errorf("%d send faults on a healthy network", n)
	}
	return converged(cluster)
}

// converged checks that every replica holds the same state and has
// executed the same sequence.
func converged(cluster *pbft.Cluster) error {
	want := cluster.Apps[0].Snapshot()
	exec := cluster.Replicas[0].Executed()
	for i, app := range cluster.Apps {
		if got := app.Snapshot(); got != want {
			return fmt.Errorf("replica %d state %s differs from replica 0 state %s", i, got.Short(), want.Short())
		}
		if e := cluster.Replicas[i].Executed(); e != exec {
			return fmt.Errorf("replica %d executed %d, replica 0 executed %d", i, e, exec)
		}
	}
	return nil
}

// corrupted returns a copy of h in which the first read that observed a
// written value reports a value nobody wrote.
func corrupted(h *workload.History) *workload.History {
	out := &workload.History{}
	done := false
	for _, op := range h.Ops() {
		if !done && op.Kind == workload.Read && op.Result != workload.Absent {
			op.Result = "never-written"
			done = true
		}
		out.Add(op)
	}
	return out
}

// inputDigest hashes the generated operations in arrival order.
func inputDigest(h *workload.History) string {
	ops := append([]workload.Op(nil), h.Ops()...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Arrive < ops[j].Arrive })
	hash := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(hash, "%d %d %s %s %d\n", op.User, op.Kind, op.Key, op.Value, op.Arrive)
	}
	return fmt.Sprintf("%x", hash.Sum(nil))
}

// recovery drives one crash and checkpoint-phased restart through the
// chaos package and times the restarted replica's catch-up.
type recovery struct {
	cluster *pbft.Cluster
	spans   *spanLog
	scheds  []*chaos.Schedule

	crashAt, restartAt, caughtUpAt sim.Time
	armed                          bool
	target                         uint64
}

// crash schedules a crash of replica i at offset t.
func (rc *recovery) crash(t sim.Time, i int) {
	loop := rc.cluster.Loop
	rc.scheds = append(rc.scheds, chaos.Apply(rc.cluster, chaos.NewScenario("crash").
		At(t, fmt.Sprintf("crash(r%d)", i), func(c *pbft.Cluster) error {
			if rc.crashAt < 0 {
				rc.crashAt = loop.Now()
			}
			s := rc.spans.begin("chaos.Crash")
			c.Crash(i)
			rc.spans.end(s)
			return nil
		})))
}

// restartAtPhase arms, at offset t, a restart of replica i for the
// moment a live replica executes the last sequence before a
// checkpoint. Fixing the checkpoint phase keeps catch-up comparable
// across seeds: the newcomer fetches the stable checkpoint and must
// then adopt the next one, which follows after one sequence.
func (rc *recovery) restartAtPhase(t sim.Time, i int) {
	c := rc.cluster
	loop := c.Loop
	every := uint64(c.Config.CheckpointEvery)
	rc.scheds = append(rc.scheds, chaos.Apply(c, chaos.NewScenario("arm-restart").
		At(t, fmt.Sprintf("arm-restart(r%d)", i), func(c *pbft.Cluster) error {
			rc.armed = true
			watch := c.Replicas[(i+1)%len(c.Replicas)]
			watch.OnExecute(func(seq uint64, _ []pbft.Request) {
				if !rc.armed || seq%every != every-1 {
					return
				}
				rc.armed = false
				rc.scheds = append(rc.scheds, chaos.Apply(c, chaos.NewScenario("restart").
					At(0, fmt.Sprintf("restart(r%d)", i), func(c *pbft.Cluster) error {
						s := rc.spans.begin("chaos.Restart")
						defer rc.spans.end(s)
						return c.Restart(i)
					})))
			})
			return nil
		})))
	c.OnRestart = func(j int, rep *pbft.Replica) {
		if j != i {
			return
		}
		rc.restartAt = loop.Now()
		rc.target = 0
		for k, r := range c.Replicas {
			if k != j {
				rc.target = max(rc.target, r.Executed())
			}
		}
		seen := func() {
			if rc.caughtUpAt < 0 && rep.Executed() >= rc.target {
				rc.caughtUpAt = loop.Now()
			}
		}
		rep.OnExecute(func(uint64, []pbft.Request) { seen() })
		rep.OnCheckpointAdopt(func(uint64) { seen() })
	}
}

// probe writes probe keys through cl in closed loop, one at a time,
// until the restarted replica has caught up and every replica has
// executed the same sequence, and returns the reply times. Stopping
// at the catch-up target alone could leave the newcomer short of the
// sequences ordered while it fetched state, with no traffic left to
// carry it to the next checkpoint.
func (rc *recovery) probe(cl *pbft.Client) ([]sim.Time, error) {
	loop := rc.cluster.Loop
	deadline := loop.Now() + 2*sim.Second
	obs.NewSamplerGroup(loop).Every(samplePeriod, func(now sim.Time) { watchdog(now, deadline) })
	var replies []sim.Time
	var bad error
	var next func()
	next = func() {
		n := len(replies)
		if n >= probeLimit || (rc.caughtUpAt >= 0 && converged(rc.cluster) == nil) {
			return
		}
		op := kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("probe%04d", n), "v")
		cl.Invoke(op, func(r []byte) {
			replies = append(replies, loop.Now())
			if string(r) != "OK" && bad == nil {
				bad = fmt.Errorf("probe write %d returned %q", n, r)
			}
			next()
		})
	}
	loop.Post(next)
	if err := bounded(func() error { loop.Run(); return nil }); err != nil {
		return replies, err
	}
	if bad != nil {
		return replies, bad
	}
	if cl.Outstanding() != 0 {
		return replies, fmt.Errorf("probe left %d writes outstanding", cl.Outstanding())
	}
	return replies, nil
}

// check verifies the recovery arc: every chaos action succeeded, the
// restart happened, and the restarted replica caught up via state
// transfer.
func (rc *recovery) check() error {
	for _, s := range rc.scheds {
		if err := s.Err(); err != nil {
			return fmt.Errorf("chaos schedule: %w", err)
		}
	}
	switch {
	case rc.restartAt < 0:
		return errors.New("the crashed replica was never restarted")
	case rc.caughtUpAt < 0:
		return fmt.Errorf("the restarted replica never reached sequence %d", rc.target)
	}
	var transfers uint64
	for _, rep := range rc.cluster.Replicas {
		transfers += rep.StateTransfers()
	}
	if transfers == 0 {
		return errors.New("the restarted replica caught up without a state transfer")
	}
	return nil
}
