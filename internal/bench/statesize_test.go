package bench

import (
	"bytes"
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickStateSize shrinks the prefill so a single run is cheap while the
// crash/restart arc and both transfer modes stay exercised.
func quickStateSize(kind transport.Kind, full bool) StateSizeConfig {
	return StateSizeConfig{Kind: kind, Prefill: 1000, Payload: 64, Window: 8, Seed: 1, Full: full}
}

// TestStateSizeRecoveryBothModes asserts the E12 arc completes in both
// transfer modes on both transports: the restarted replica adopts a
// checkpoint, catches up, and commits resume — with zero transfer
// rejections on a fault-free network.
func TestStateSizeRecoveryBothModes(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, full := range []bool{false, true} {
			r, err := RunStateSize(quickStateSize(kind, full), model.Default())
			if err != nil {
				t.Errorf("%s full=%v: %v", kind, full, err)
				continue
			}
			if r.StateTransfers == 0 || r.Recovery <= 0 {
				t.Errorf("%s full=%v: no recovery (%+v)", kind, full, r)
			}
			if r.StateRejects != 0 {
				t.Errorf("%s full=%v: %d transfer rejections on a clean network", kind, full, r.StateRejects)
			}
			if r.SteadyCheckpoints == 0 || r.SteadyCheckpointBytes == 0 {
				t.Errorf("%s full=%v: no steady checkpoints measured", kind, full)
			}
		}
	}
}

// TestStateSizePartialBeatsFull asserts the headline comparison at one
// prefill size: the partial path serves fewer transfer bytes and takes
// checkpoints with less steady serialization than the full baseline.
func TestStateSizePartialBeatsFull(t *testing.T) {
	partial, err := RunStateSize(quickStateSize(transport.KindTCP, false), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunStateSize(quickStateSize(transport.KindTCP, true), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	if partial.TransferBytes >= full.TransferBytes {
		t.Errorf("partial transfer served %d bytes, full served %d", partial.TransferBytes, full.TransferBytes)
	}
	if partial.SteadyCheckpointBytes >= full.SteadyCheckpointBytes {
		t.Errorf("partial steady checkpoint %d bytes, full %d", partial.SteadyCheckpointBytes, full.SteadyCheckpointBytes)
	}
}

// TestStateSizeDeterministic asserts a full E12 registry run (quick
// caps) marshals byte-identically across repetitions — the property the
// checked-in BENCH_E12.json and its pin test rely on.
func TestStateSizeDeterministic(t *testing.T) {
	run := func() []byte {
		rc := DefaultRunContext()
		rc.Quick = true
		rc.Knobs = map[string]string{"prefills": "500"}
		res, err := Run("E12", rc)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("E12 not byte-deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
