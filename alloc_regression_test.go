package rubin_test

import (
	"math"
	"testing"

	"rubin/internal/bench"
	"rubin/internal/metrics"
	"rubin/internal/raceflag"
)

// TestAllocRegressionCheckedIn is the allocation-regression gate: it
// re-measures the ALLOC experiment in process and compares every point
// against the checked-in BENCH_ALLOC.json. A layer whose steady-state
// allocs/op grow more than 10% past the baseline (plus a fixed 0.25
// slack so an exact-zero baseline still tolerates AllocsPerRun's
// truncation jitter) fails here instead of silently shipping. It also
// pins the headline bounds of the hot-path passes on the baseline file
// itself, so a regenerated file cannot quietly relax a claim: whole-message
// sends at most 1 alloc/op, auth MACs exactly zero, one allocation per
// message delivered over either transport backend (the copy the receiver
// owns), one per envelope decode, and at most two per pre-prepare or
// kvstore bucket encode.
func TestAllocRegressionCheckedIn(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	base, err := metrics.ReadResultFile("BENCH_ALLOC.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Experiment != "ALLOC" {
		t.Fatalf("experiment %q, want ALLOC", base.Experiment)
	}
	headline := map[string]float64{
		"transport tcp deliver":   1,
		"transport rdma deliver":  1,
		"pbft envelope decode":    1,
		"pbft pre-prepare encode": 2,
		"kvstore bucket encode":   2,
	}
	for name := range headline {
		if base.GetSeries(name, metrics.MetricAllocsPerOp) == nil {
			t.Errorf("baseline lacks series %q", name)
		}
	}
	for _, s := range base.Series {
		for _, p := range s.Points {
			switch {
			case s.Name == "msgnet send whole" && p.Y > 1:
				t.Errorf("baseline %q at %v bytes: %.2f allocs/op, want <= 1", s.Name, p.X, p.Y)
			case s.Name == "auth mac" && p.Y != 0:
				t.Errorf("baseline %q at n=%v: %.2f allocs/op, want 0", s.Name, p.X, p.Y)
			case headline[s.Name] != 0 && p.Y > headline[s.Name]:
				t.Errorf("baseline %q at x=%v: %.2f allocs/op, want <= %v", s.Name, p.X, p.Y, headline[s.Name])
			}
		}
	}

	// Quick mode shrinks only the AllocsPerRun iteration count; the sweep
	// points match the full-mode baseline one for one.
	rc := bench.DefaultRunContext()
	rc.Quick = true
	fresh, err := bench.Run("ALLOC", rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range base.Series {
		fs := fresh.GetSeries(bs.Name, bs.Metric)
		if fs == nil {
			t.Errorf("series (%s, %s) missing from fresh run", bs.Name, bs.Metric)
			continue
		}
		for _, p := range bs.Points {
			got := fs.At(p.X)
			if math.IsNaN(got) {
				t.Errorf("series %q: fresh run has no point at x=%v", bs.Name, p.X)
				continue
			}
			if limit := p.Y*1.10 + 0.25; got > limit {
				t.Errorf("series %q at x=%v: measured %.2f allocs/op, baseline %.2f (limit %.2f)",
					bs.Name, p.X, got, p.Y, limit)
			}
		}
	}
}
