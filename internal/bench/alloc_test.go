package bench

import (
	"bytes"
	"testing"

	"rubin/internal/raceflag"
)

// allocTinyKnobs shrink the ALLOC sweeps for test runs: few AllocsPerRun
// iterations, one point per knob axis (the codec series sweep fixed
// sizes). Steady-state allocs/op are integers, so fewer iterations
// measure the same values.
func allocTinyKnobs() map[string]string {
	return map[string]string{
		"runs":             "25",
		"whole_payloads":   "1024",
		"chunked_payloads": "1048576",
		"replicas":         "4",
		"pending":          "16",
	}
}

// TestAllocDeterminism is ALLOC's counterpart of the registry round-trip
// test, kept serial on purpose: AllocsPerRun reads process-global malloc
// counters, so two same-seed runs are only byte-identical when nothing
// else allocates concurrently.
func TestAllocDeterminism(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Seed = 7
	rc.Knobs = allocTinyKnobs()
	first, err := Run("ALLOC", rc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run("ALLOC", rc)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := second.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two seed-7 ALLOC runs differ:\n%s\nvs\n%s", b1, b2)
	}
}

// TestAllocHeadlineBounds asserts the claims of the hot-path passes on a
// live measurement: whole-frame sends at most 1 alloc/op, MAC/Verify and
// timer arm+fire exactly zero, one allocation per delivered message on
// either backend (the receiver-owned copy), one per envelope decode (the
// authenticator's slice array; fields alias the input) and two per
// pre-prepare and bucket encode (one sized buffer plus, respectively,
// the boxed message and the sorted key list).
func TestAllocHeadlineBounds(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Knobs = allocTinyKnobs()
	res, err := Run("ALLOC", rc)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []struct {
		series string
		max    float64
	}{
		{"msgnet send whole", 1},
		{"msgnet send chunked", 1},
		{"auth mac", 0},
		{"auth verify", 0},
		{"sim timer arm+fire", 0},
		{"sim timer arm+cancel", 0},
		{"transport tcp deliver", 1},
		{"transport rdma deliver", 1},
		{"pbft envelope decode", 1},
		{"pbft pre-prepare encode", 2},
		{"kvstore bucket encode", 2},
	}
	for _, b := range bounds {
		s := res.GetSeries(b.series, "allocs_per_op")
		if s == nil {
			t.Fatalf("missing series %q", b.series)
		}
		for _, p := range s.Points {
			if p.Y > b.max {
				t.Errorf("series %q at x=%v: %.2f allocs/op, want <= %v", b.series, p.X, p.Y, b.max)
			}
		}
	}
}

// TestAllocKnobValidation asserts malformed ALLOC knobs are rejected.
func TestAllocKnobValidation(t *testing.T) {
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Knobs = map[string]string{"runs": "many"}
	if _, err := Run("ALLOC", rc); err == nil {
		t.Error("Run accepted malformed runs knob")
	}
	rc.Knobs = map[string]string{"pending": "0"}
	if _, err := Run("ALLOC", rc); err == nil {
		t.Error("Run accepted pending=0")
	}
}
