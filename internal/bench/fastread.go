package bench

import (
	"fmt"
	"slices"

	"rubin/internal/metrics"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// ---------------------------------------------------------------------------
// Registry entry: E11 (read-only fast path × batch size study).
// ---------------------------------------------------------------------------
//
// E11 measures the PBFT read-only optimization (Castro & Liskov §4.4):
// clients multicast side-effect-free requests to every replica, replicas
// execute them tentatively against their last-executed state, and the
// client accepts on 2F+1 matching replies — skipping agreement entirely.
// Two sweeps, each run with the fast path on and off on both transports:
//
//   - mix: read share of a closed-loop workload (x = read_pct). The
//     fast path's payoff should grow with the read share.
//   - batch: agreement batch size at the highest read share (x = batch).
//     Batching amortizes agreement for writes; the fast path removes
//     agreement for reads. The sweep shows how much of the fast path's
//     win batching alone can (and cannot) recover.
//
// Every point runs under the workload history oracle — a fast-path read
// returning a stale or unordered value fails the per-key
// linearizability check and aborts the experiment. fp=on points also
// export the fast-read and fallback counters so a run that silently
// degraded to the ordered path is visible in the data.

func init() {
	Register(Experiment{
		Name:   "E11",
		Title:  "read-only fast path: read share and batch size under the linearizability oracle",
		Figure: "beyond the paper: Castro-Liskov read optimization on the RDMA transport study",
		Knobs: []Knob{
			{"read_pcts", "50,90,99", "90", 0, list}, // read shares of the mix sweep
			{"batches", "1,8,32", "8", 1, list},      // agreement batch sizes of the batch sweep
			{"n", "4", "", 4, scalar},                // 3f+1 with f >= 1
			{"users", "96", "24", 1, scalar},
			{"conns", "4", "2", 1, scalar},
			{"keys", "128", "32", 10, scalar},
			{"ops", "300", "60", 1, scalar},
			{"warmup", "30", "10", 0, scalar},
			{"value_bytes", "128", "", 0, scalar},
			{"window", "1", "", 1, scalar},             // closed-loop outstanding per user
			{"read_timeout_us", "2000", "", 1, scalar}, // fast-read fallback timeout
		},
		Check: func(v KnobValues) error {
			for _, r := range v.Ints("read_pcts") {
				if r > 100 {
					return fmt.Errorf("read_pcts are percentages, got %d", r)
				}
			}
			return checkConns(v)
		},
		Run: runE11,
	})
}

// e11Series is one E11 sweep combo's series bundle: the shared E9
// percentile/breakdown bundle plus — for fast-path-on combos only — the
// fast-read and fallback counters.
type e11Series struct {
	e9Series
	fastReads *metrics.ResultSeries
	fastFalls *metrics.ResultSeries
}

func addE11Series(res *metrics.Result, name, transport, xLabel string, fast bool) e11Series {
	s := e11Series{e9Series: addE9Series(res, name, transport, xLabel, false)}
	if fast {
		s.fastReads = res.AddSeries(name, metrics.MetricFastReads, "count", transport, xLabel)
		s.fastFalls = res.AddSeries(name, metrics.MetricFastFallbacks, "count", transport, xLabel)
	}
	return s
}

func (s e11Series) observe(x float64, r TrafficResult) {
	s.e9Series.observe(x, r)
	if s.fastReads != nil {
		s.fastReads.Add(x, float64(r.FastReads))
		s.fastFalls.Add(x, float64(r.FastFallbacks))
	}
}

// e11Check enforces the invariants every E11 point must satisfy beyond
// RunTraffic's own health and linearizability checks: a fast-path-on
// point with reads in the mix must actually serve fast reads (a run
// that silently degraded to ordering is a failed experiment, not a
// slow one), and a fast-path-off point must never use it.
func e11Check(r TrafficResult, fast bool, readPct int) error {
	if !fast {
		if r.FastReads != 0 || r.FastFallbacks != 0 {
			return fmt.Errorf("bench: fast path off but served %d fast reads, %d fallbacks",
				r.FastReads, r.FastFallbacks)
		}
		return nil
	}
	if readPct > 0 && r.FastReads == 0 {
		return fmt.Errorf("bench: fast path on with %d%% reads served none fast (%d fallbacks)",
			readPct, r.FastFallbacks)
	}
	return nil
}

func runE11(rc RunContext, v KnobValues, res *metrics.Result) error {
	readTimeout := sim.Time(v.Int("read_timeout_us")) * sim.Microsecond
	// The batch sweep pins the read share at the mix sweep's highest —
	// where the fast path has the most agreement work to remove.
	topRead := slices.Max(v.Ints("read_pcts"))
	base := func(kind transport.Kind, fast bool) TrafficConfig {
		cfg := trafficBase(rc, v, kind)
		cfg.Zipf100, cfg.Arrival = 99, workload.Closed(v.Int("window"), 0)
		if fast {
			cfg.ReadFastPath, cfg.ReadTimeout = true, readTimeout
		}
		return cfg
	}
	fpLabel := map[bool]string{true: "fp=on", false: "fp=off"}
	// Sweep 1: read share at the default batch size.
	for _, kind := range e8Transports {
		for _, fast := range []bool{true, false} {
			name := fmt.Sprintf("mix %s %s", fpLabel[fast], e8Label(kind))
			ss := addE11Series(res, name, string(kind), "read_pct", fast)
			for _, readPct := range v.Ints("read_pcts") {
				cfg := base(kind, fast)
				cfg.Mix = e9Mix(readPct, 0, 0)
				r, err := RunTraffic(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("read_pct=%d %s %s: %w", readPct, fpLabel[fast], kind, err)
				}
				if err := e11Check(r, fast, readPct); err != nil {
					return fmt.Errorf("read_pct=%d %s %s: %w", readPct, fpLabel[fast], kind, err)
				}
				ss.observe(float64(readPct), r)
			}
		}
	}
	// Sweep 2: agreement batch size at the highest read share.
	for _, kind := range e8Transports {
		for _, fast := range []bool{true, false} {
			name := fmt.Sprintf("batch %s %s", fpLabel[fast], e8Label(kind))
			ss := addE11Series(res, name, string(kind), "batch", fast)
			for _, batch := range v.Ints("batches") {
				cfg := base(kind, fast)
				cfg.Mix = e9Mix(topRead, 0, 0)
				cfg.BatchSize = batch
				r, err := RunTraffic(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("batch=%d %s %s: %w", batch, fpLabel[fast], kind, err)
				}
				if err := e11Check(r, fast, topRead); err != nil {
					return fmt.Errorf("batch=%d %s %s: %w", batch, fpLabel[fast], kind, err)
				}
				ss.observe(float64(batch), r)
			}
		}
	}
	return nil
}
