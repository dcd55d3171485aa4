package bench

import (
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// bftConfig returns E5's default 4-replica, f=1, single-client setup
// at payload bytes.
func bftConfig(kind transport.Kind, payload int) BFTConfig {
	return BFTConfig{
		Kind: kind, Payload: payload,
		Requests: 150, Warmup: 20, Window: 16, Batch: 8,
		N: 4, F: 1, Clients: 1, Seed: 1,
	}
}

// quickBFTN returns a small closed-loop config for an N-replica cluster.
func quickBFTN(kind transport.Kind, n int) BFTConfig {
	cfg := bftConfig(kind, 1<<10)
	cfg.N, cfg.F = n, (n-1)/3
	cfg.Requests, cfg.Warmup = 40, 5
	cfg.Clients = 2
	cfg.Window = 8
	return cfg
}

// TestBFTScalesWithN asserts the N axis of E8 works at all swept sizes and
// that agreement latency grows with the cluster size (quadratic message
// complexity): N=10 must be slower than N=4 on both transports.
func TestBFTScalesWithN(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		lats := map[int]float64{}
		for _, n := range []int{4, 7, 10} {
			res, err := RunBFT(quickBFTN(kind, n), model.Default())
			if err != nil {
				t.Fatalf("%s N=%d: %v", kind, n, err)
			}
			if res.MeanLat <= 0 || res.Throughput <= 0 {
				t.Fatalf("%s N=%d: degenerate result %+v", kind, n, res)
			}
			if res.SendFaults != 0 {
				t.Errorf("%s N=%d: %d send faults on a healthy network", kind, n, res.SendFaults)
			}
			lats[n] = res.MeanLat.Micros()
		}
		if lats[10] <= lats[4] {
			t.Errorf("%s: N=10 latency (%.1fus) should exceed N=4 (%.1fus)", kind, lats[10], lats[4])
		}
	}
}

// TestBFTMultiClientAddsLoad asserts the closed-loop client count is a real
// load axis: two clients commit more requests per second than one.
func TestBFTMultiClientAddsLoad(t *testing.T) {
	one := bftConfig(transport.KindRDMA, 1<<10)
	one.Requests, one.Warmup, one.Window = 60, 10, 8
	two := one
	two.Clients = 2
	r1, err := RunBFT(one, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBFT(two, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Throughput <= r1.Throughput {
		t.Errorf("2 clients (%.0f req/s) should out-commit 1 client (%.0f req/s)",
			r2.Throughput, r1.Throughput)
	}
}

func quickCOP(kind transport.Kind, k int) COPConfig {
	return COPConfig{
		Kind: kind, Payload: 1 << 10, Instances: k,
		Requests: 40, Warmup: 5, Window: 8, Batch: 8,
		N: 4, F: 1, Clients: 2, Seed: 1,
	}
}

// TestCOPInstanceSweep asserts the K axis of E8 is measurable at every
// swept instance count and reproduces the merge-barrier effect documented
// in docs/EXPERIMENTS.md: under closed-loop load, per-request latency grows
// with K (the deterministic round-robin merge stalls on holes that
// heartbeat fills resolve), so the parallelization is not free — it pays
// off only when a single leader pipeline saturates.
func TestCOPInstanceSweep(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		lats := map[int]float64{}
		for _, k := range []int{1, 2, 4} {
			r, err := RunCOP(quickCOP(kind, k), model.Default())
			if err != nil {
				t.Fatalf("%s K=%d: %v", kind, k, err)
			}
			if r.MeanLat <= 0 || r.Throughput <= 0 || r.MergedSlots == 0 {
				t.Fatalf("%s K=%d: degenerate result %+v", kind, k, r)
			}
			lats[k] = r.MeanLat.Micros()
		}
		if lats[4] <= lats[1] {
			t.Errorf("%s: K=4 latency (%.1fus) should exceed K=1 (%.1fus) under the merge barrier",
				kind, lats[4], lats[1])
		}
	}
}

// TestCOPFasterOverRUBIN extends the paper's claim to the parallelized
// system: COP ordering commits faster over RUBIN than over the NIO stack.
func TestCOPFasterOverRUBIN(t *testing.T) {
	r, err := RunCOP(quickCOP(transport.KindRDMA, 4), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	n, err := RunCOP(quickCOP(transport.KindTCP, 4), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanLat >= n.MeanLat {
		t.Errorf("COP latency over RUBIN (%v) should beat NIO (%v)", r.MeanLat, n.MeanLat)
	}
}
