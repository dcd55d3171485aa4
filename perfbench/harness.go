package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

const (
	// scenariosPerRun is how many scenarios, each with its own sub-seed
	// of the run's seed, one nominal run pools. More scenarios steady the
	// virtual metrics across seeds; the nominal phase repeats them for
	// its wall-clock metrics until --seconds have passed.
	scenariosPerRun = 6
	// maxRepeats caps the nominal phase at this many scenarios per
	// distinct sub-seed.
	maxRepeats = 3
	// runBudget bounds a whole run; a child still running then is killed.
	runBudget = 170 * time.Second
	// childEnv marks a process the harness spawned.
	childEnv = "PERFBENCH_CHILD"

	// The capacity ladder: rung k offers ladderBase * ladderStep^k
	// virtual ops/s, k in [0, ladderTop]. 5% steps mean a 10% change in
	// capacity crosses at least one rung.
	ladderBase = 1000.0
	ladderStep = 1.05
	ladderTop  = 90
	// searchOps is the measured operations of a probe that brackets the
	// knee; refineOps those of the two probes that place it.
	searchOps = 2000
	refineOps = 8000
	// p99LimitUS is the latency limit a rate must meet to count as
	// sustained, and minKeepUp the share of the offered rate goodput
	// must reach (no growing backlog).
	p99LimitUS = 2000.0
	minKeepUp  = 0.95
	// cpuProfileHz is the sampling rate of the traced run's profile.
	cpuProfileHz = 1000
)

// child is one finished child process: its scenario result and its peak
// resident memory.
type child struct {
	Result
	PeakRSSMB float64
}

// harness runs one workload's children and folds their results.
type harness struct {
	w        Workload
	seed     int64
	outDir   string
	exe      string
	deadline time.Time
	// Sizes, which tests shrink: scenarios per nominal run, measured
	// operations per nominal scenario (0 keeps the workload's), and
	// operations per capacity probe.
	scenarios, ops, searchOps, refineOps int
}

func newHarness(w Workload, seed int64, outDir string) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &harness{
		w: w, seed: seed, outDir: outDir, exe: exe, deadline: time.Now().Add(runBudget),
		scenarios: scenariosPerRun, searchOps: searchOps, refineOps: refineOps,
	}, nil
}

// subSeed derives the seed of the i-th scenario of a run.
func (h *harness) subSeed(i int) int64 { return h.seed*scenariosPerRun + int64(i) }

// spawn runs one scenario in a fresh child process and waits for it.
// ops 0 keeps the workload's operation count.
func (h *harness) spawn(mode string, seed int64, rate float64, ops int) (child, error) {
	ctx, cancel := context.WithDeadline(context.Background(), h.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, "-child", mode, "-workload", h.w.Name,
		"-seed", fmt.Sprint(seed), "-rate", fmt.Sprint(rate), "-ops", fmt.Sprint(ops), "-out", h.outDir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return child{}, fmt.Errorf("%s scenario seed %d rate %g: %w", mode, seed, rate, err)
	}
	var c child
	if err := json.Unmarshal(out.Bytes(), &c.Result); err != nil {
		return child{}, fmt.Errorf("%s scenario seed %d: decode result: %w", mode, seed, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// runChild runs one scenario inside this process.
func runChild(w Workload, mode string, seed int64, rate float64, ops int, outDir string) (Result, error) {
	switch mode {
	case "nominal":
		return runScenario(w, runOpts{seed: seed, ops: ops, fault: true})
	case "probe":
		res, err := runScenario(w, runOpts{seed: seed, rate: rate, ops: ops})
		res.Lat = nil // the parent needs only the percentiles
		return res, err
	case "traced":
		return runTraced(w, seed, ops, outDir)
	}
	return Result{}, fmt.Errorf("unknown child mode %q", mode)
}

// runTraced runs the nominal scenario with spans, the breakdown tracer
// and a CPU profile of the measured phase, writes the span log and the
// profile to outDir, and attaches the per-layer figures they give.
func runTraced(w Workload, seed int64, ops int, outDir string) (Result, error) {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.Name, seed))
	var prof bytes.Buffer
	var profErr error
	spans := newSpanLog()
	o := runOpts{seed: seed, ops: ops, fault: true, spans: spans, measure: func(begin bool) {
		if begin {
			// Raising the rate before StartCPUProfile makes the runtime
			// print a harmless warning; 100 Hz is too coarse for runs
			// of a few seconds.
			runtime.SetCPUProfileRate(cpuProfileHz)
			profErr = pprof.StartCPUProfile(&prof)
		} else if profErr == nil {
			pprof.StopCPUProfile()
		}
	}}
	res, err := runScenario(w, o)
	if err != nil {
		return res, err
	}
	if profErr != nil {
		return res, fmt.Errorf("cpu profile: %w", profErr)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return res, err
	}
	if err := spans.write(base + ".spans.jsonl"); err != nil {
		return res, err
	}
	res.Layers = spanLayers(spans.stats(), res.Virtual.Completed)
	for _, l := range profiledLayers {
		res.Layers[l+".cpu_pct"] = shares[l]
	}
	res.Layers["runtime.gc_cpu_pct"] = shares["runtime"]
	return res, nil
}

// profiledLayers are the packages whose CPU share the traced run
// reports, in report order.
var profiledLayers = []string{
	"sim", "fabric", "tcpsim", "nio", "rdma", "rubin", "transport", "msgnet",
	"auth", "pbft", "kvstore", "workload", "chaos", "obs", "harness",
}

// spanLayers turns span totals into per-layer figures.
func spanLayers(st map[string]spanStat, ops int) map[string]float64 {
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += st[n].Total
		}
		return d.Seconds()
	}
	perOp := func(s float64) float64 { return s * 1e6 / float64(max(ops, 1)) }
	invoke := st["pbft.Client.Invoke"]
	return map[string]float64{
		"sim.run_self_s":            st["workload.Driver.Run"].Self.Seconds(),
		"pbft.invoke_us_per_op":     invoke.Total.Seconds() * 1e6 / float64(max(invoke.Count, 1)),
		"pbft.new_cluster_ms":       sec("pbft.NewCluster") * 1e3,
		"pbft.start_ms":             sec("pbft.Start") * 1e3,
		"pbft.add_clients_ms":       sec("pbft.AddClients") * 1e3,
		"kvstore.execute_us_per_op": perOp(sec("kvstore.Execute", "kvstore.ExecuteReadOnly")),
		"kvstore.marshal_ms":        sec("kvstore.MarshalState", "kvstore.MarshalPartition") * 1e3,
		"kvstore.apply_ms":          sec("kvstore.ApplyTransfer") * 1e3,
		"workload.check_s":          sec("workload.History.Check"),
		"chaos.action_ms":           sec("chaos.Crash", "chaos.Restart") * 1e3,
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run: the verdict, the metrics and the
// human-readable lines printed before the JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
	order     []string
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds one child into the verdict: a child that failed the gate
// fails every operation it attempted.
func (r *report) count(c child) {
	att := c.Virtual.Attempted + c.Virtual.ProbeOps
	r.Attempted += att
	if c.Gate != "" {
		r.Failed += att
		r.Correct = false
		r.logf("correctness gate FAILED: %s", c.Gate)
		return
	}
	r.Failed += c.Virtual.Attempted - c.Virtual.Completed
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(r) // plain maps of numbers and strings
	fmt.Fprintln(w, string(b))
}

// nominal runs the untraced measurement: the workload's scenarios at
// its nominal rate, repeated for wall-clock samples until seconds have
// passed, plus the capacity search.
func (h *harness) nominal(seconds int) (report, error) {
	rep := report{Correct: true}
	w := h.w
	rep.logf("workload %s: %s; %d%% reads, %d B values, %d keys (zipf %.2f), %d users over %d connections",
		w.Name, w.Kind, w.ReadPct, w.ValueSize, w.Keys, w.Zipf, w.Users, w.Conns)
	rep.logf("open loop: Poisson %.0f ops/s in virtual time; the generator runs on virtual time and is never late",
		w.Rate)

	start := time.Now()
	var first []child // the first scenario of each sub-seed
	var all []child
	for i := 0; i < h.scenarios || (time.Since(start) < time.Duration(seconds)*time.Second && i < maxRepeats*h.scenarios); i++ {
		seed := h.subSeed(i % h.scenarios)
		c, err := h.spawn("nominal", seed, 0, h.ops)
		if err != nil {
			return rep, err
		}
		rep.count(c)
		if i < h.scenarios {
			first = append(first, c)
			rep.logf("scenario seed %d: p50 %.1f us p99 %.1f us outage %.3f ms catchup %.3f ms, %d ops, setup %.4f s, %.0f ops/s wall, peak RSS %.0f MB, %d GC, inputs %s",
				seed, c.Virtual.P50US, c.Virtual.P99US, c.Virtual.OutageMS, c.Virtual.CatchupMS,
				c.Virtual.Completed, c.Wall.SetupS, c.Wall.WallOpsPerS, c.PeakRSSMB, c.Wall.GCCycles, c.Virtual.InputDigest[:12])
		} else if !sameVirtual(first[i%h.scenarios].Result, c.Result) {
			rep.Correct = false
			rep.logf("determinism FAILED: seed %d repeated with different virtual results", seed)
		}
		all = append(all, c)
	}
	rep.logf("determinism: %d repeat scenarios reproduced their seed's virtual results", len(all)-len(first))

	var lat []float64
	var outage, catchup, wallOps, rss, setup []float64
	for _, c := range first {
		lat = append(lat, c.Lat...)
		outage = append(outage, c.Virtual.OutageMS)
		catchup = append(catchup, c.Virtual.CatchupMS)
	}
	for _, c := range all {
		wallOps = append(wallOps, c.Wall.WallOpsPerS)
		rss = append(rss, c.PeakRSSMB)
		setup = append(setup, c.Wall.SetupS)
	}

	capOps, probes, err := h.capacity()
	if err != nil {
		return rep, err
	}
	for _, c := range probes {
		rep.count(c)
		setup = append(setup, c.Wall.SetupS)
	}

	sort.Float64s(lat)
	rep.logf("latency samples pooled over %d scenarios: %d", len(first), len(lat))
	rep.set("p50_us", percentile(lat, 50), "us")
	rep.set("p99_us", percentile(lat, 99), "us")
	rep.set("p999_us", percentile(lat, 99.9), "us")
	rep.set("capacity_ops", capOps, "ops/s")
	rep.set("outage_ms", median(outage), "ms")
	rep.set("catchup_ms", median(catchup), "ms")
	rep.set("setup_s", median(setup), "s")
	rep.set("wall_ops_per_s", median(wallOps), "ops/s")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.logf("fail_ratio %.6f (%d of %d operations failed)", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	return rep, nil
}

// capacity searches the ladder for the highest rate whose probe keeps
// p99 within the limit and goodput up with the offered rate. Short
// probes bisect the ladder for the knee, assuming a rate passes
// whenever a higher one does; long probes then confirm the last passing
// rung and the first failing one, stepping the bracket if they
// disagree. Between the two it interpolates p99 log-linearly to the
// limit, so the figure moves with the knee and not only in rung steps.
func (h *harness) capacity() (float64, []child, error) {
	seed := h.subSeed(0)
	var all []child
	sustained := func(c child) bool {
		v := c.Virtual
		return c.Gate == "" && v.P99US <= p99LimitUS && v.Goodput >= minKeepUp*v.Offered
	}
	try := func(k, ops int) (child, error) {
		c, err := h.spawn("probe", seed, rung(k), ops)
		if err == nil {
			all = append(all, c)
		}
		return c, err
	}
	lo, hi := 0, ladderTop+1 // rung lo passes, rung hi fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		c, err := try(mid, h.searchOps)
		if err != nil {
			return 0, all, err
		}
		if sustained(c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Confirm the bracket with long probes. Where a short probe misjudged
	// a rung, walk the bracket down or up one rung at a time. A rung's
	// result is deterministic, so the walk never turns back.
	long := make(map[int]child)
	confirm := func(k int) (bool, error) {
		c, seen := long[k]
		if !seen {
			var err error
			if c, err = try(k, h.refineOps); err != nil {
				return false, err
			}
			long[k] = c
		}
		return sustained(c), nil
	}
	for {
		ok, err := confirm(lo)
		if err != nil {
			return 0, all, err
		}
		if !ok {
			if lo == 0 {
				return 0, all, fmt.Errorf("capacity: even %.0f ops/s misses the limits", rung(0))
			}
			lo, hi = lo-1, lo
			continue
		}
		if hi > ladderTop {
			return rung(lo), all, nil // the ladder's top is sustained
		}
		if ok, err = confirm(hi); err != nil {
			return 0, all, err
		} else if !ok {
			break
		}
		lo, hi = hi, hi+1
	}
	capOps := rung(lo)
	if p0, p1 := long[lo].Virtual.P99US, long[hi].Virtual.P99US; p1 > p99LimitUS && p1 > p0 {
		f := (math.Log(p99LimitUS) - math.Log(p0)) / (math.Log(p1) - math.Log(p0))
		capOps *= math.Pow(ladderStep, f)
	}
	return capOps, all, nil
}

func rung(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// traced runs the same scenario untraced and traced, checks that tracing
// left every virtual result unchanged, and reports the per-layer metrics.
func (h *harness) traced() (report, error) {
	rep := report{Correct: true}
	seed := h.subSeed(0)
	plain, err := h.spawn("nominal", seed, 0, h.ops)
	if err != nil {
		return rep, err
	}
	tr, err := h.spawn("traced", seed, 0, h.ops)
	if err != nil {
		return rep, err
	}
	rep.count(plain)
	rep.count(tr)
	if !sameVirtual(plain.Result, tr.Result) {
		rep.Correct = false
		rep.logf("tracing FAILED to leave virtual results unchanged")
	} else {
		rep.logf("traced run reproduced the untraced run's virtual results exactly")
	}
	base := filepath.Join(h.outDir, fmt.Sprintf("%s-seed%d", h.w.Name, seed))
	rep.logf("spans: %s.spans.jsonl; CPU profile: %s.cpu.pprof", base, base)
	overhead := 100 * ((tr.Wall.RunS+tr.Wall.CheckS)/(plain.Wall.RunS+plain.Wall.CheckS) - 1)
	rep.logf("tracing overhead: %.1f%% of the untraced measured phase", overhead)

	v, c, wall, l := tr.Virtual, tr.Virtual.Counters, tr.Wall, tr.Layers
	ops := float64(max(v.Completed, 1))
	rep.set("sim.events_per_op", float64(c.Events)/ops, "count")
	rep.set("sim.cpu_pct", l["sim.cpu_pct"], "%")
	rep.set("sim.run_self_s", l["sim.run_self_s"], "s")
	rep.set("fabric.wire_bytes_per_op", float64(c.WireBytes)/ops, "B")
	rep.set("fabric.frames_per_op", float64(c.Frames)/ops, "count")
	rep.set("fabric.leader_cpu_us_per_op", c.LeaderCPUUS/ops, "us")
	rep.set("fabric.backup_cpu_us_per_op", c.BackupCPUUS/ops, "us")
	rep.set("fabric.leader_cpu_wait_us", c.LeaderCPUWaitUS, "us")
	rep.set("fabric.leader_nic_us_per_op", c.LeaderNICUS/ops, "us")
	rep.set("transport.net_us", c.NetUS, "us")
	rep.set("msgnet.peak_queue_bytes", float64(c.PeakQueueBytes), "B")
	rep.set("msgnet.send_errors", float64(c.SendFaults), "count")
	rep.set("pbft.invoke_us_per_op", l["pbft.invoke_us_per_op"], "us")
	rep.set("pbft.ops_per_batch", float64(v.Completed)/float64(max(c.LeaderExecuted, 1)), "count")
	rep.set("pbft.order_us", c.OrderUS, "us")
	rep.set("pbft.view_changes", float64(c.View), "count")
	rep.set("pbft.state_transfers", float64(c.StateTransfers), "count")
	rep.set("pbft.transfer_bytes", float64(c.TransferBytes), "B")
	rep.set("pbft.checkpoint_bytes_per_op", float64(c.CheckpointBytes)/ops, "B")
	rep.set("pbft.retained_state_mb", float64(c.RetainedBytes)/(1<<20), "MB")
	rep.set("pbft.new_cluster_ms", l["pbft.new_cluster_ms"], "ms")
	rep.set("pbft.start_ms", l["pbft.start_ms"], "ms")
	rep.set("pbft.add_clients_ms", l["pbft.add_clients_ms"], "ms")
	rep.set("kvstore.execute_us_per_op", l["kvstore.execute_us_per_op"], "us")
	rep.set("kvstore.marshal_ms", l["kvstore.marshal_ms"], "ms")
	rep.set("kvstore.apply_ms", l["kvstore.apply_ms"], "ms")
	rep.set("kvstore.state_mb", float64(c.StateBytes)/(1<<20), "MB")
	rep.set("workload.queue_us", c.QueueUS, "us")
	rep.set("workload.check_s", l["workload.check_s"], "s")
	rep.set("chaos.action_ms", l["chaos.action_ms"], "ms")
	for _, name := range profiledLayers {
		rep.set(name+".cpu_pct", l[name+".cpu_pct"], "%")
	}
	rep.set("runtime.alloc_kb_per_op", float64(wall.AllocBytes)/1024/ops, "KB")
	rep.set("runtime.gc_cycles", float64(wall.GCCycles), "count")
	rep.set("runtime.heap_after_setup_mb", float64(wall.HeapAfterSetup)/(1<<20), "MB")
	rep.set("runtime.gc_cpu_pct", l["runtime.gc_cpu_pct"], "%")
	rep.set("harness.trace_overhead_pct", overhead, "%")
	return rep, nil
}

// sameVirtual reports whether two scenarios of one seed produced the
// same virtual results. The latency breakdown exists only when traced,
// so it is left out.
func sameVirtual(a, b Result) bool {
	va, vb := a.Virtual, b.Virtual
	for _, v := range []*Virtual{&va, &vb} {
		v.Counters.QueueUS, v.Counters.OrderUS, v.Counters.NetUS = 0, 0, 0
	}
	return reflect.DeepEqual(va, vb) && reflect.DeepEqual(a.Lat, b.Lat) && a.Gate == b.Gate
}

// percentile returns the p-th percentile of sorted values by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
