package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// loadEpoch loads the repository's current golden epoch, failing the test
// if the record is missing or structurally invalid.
func loadEpoch(t *testing.T) *GoldenEpoch {
	t.Helper()
	e, err := LoadGoldenEpoch(GoldenEpochPath)
	if err != nil {
		t.Fatalf("loading golden epoch: %v", err)
	}
	return e
}

// The deterministic kernel is pinned by a versioned golden epoch: the
// SHA-256 of the bit-exact Figure 10 trace dump must match the digest of
// the epoch record in testdata/. The dump renders every sample as a hex
// float (strconv 'x' format), so a single flipped mantissa bit in any
// series changes the digest.
//
// A digest mismatch means the kernel's float arithmetic moved. If that was
// intentional (an optimization or model change), re-pin the epoch — the
// re-pin validates the paper metrics against Fig10Bounds and records the
// old→new delta:
//
//	make repin REASON="why the bits moved"
func TestFig10TraceBitIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 105-minute trial; skipped in -short mode")
	}
	e := loadEpoch(t)

	r, err := Fig10(context.Background(), e.Seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := r.Recorder.WriteExact(h); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	if got != e.Digest {
		t.Errorf("Fig10 seed-%d trace digest drifted from golden epoch v%d:\n got  %s\n want %s\n"+
			"if the kernel change is intentional, re-pin with: make repin REASON=\"...\"",
			e.Seed, e.Version, got, e.Digest)
	}
}

// TestFig10MetricsWithinGoldenEpochBounds is the tolerance-based half of
// the epoch discipline: regardless of float-level bit movement, the
// trial's headline paper metrics must sit inside the documented
// Fig10Bounds, and the epoch record must agree with a fresh run (the
// digest pin makes the run deterministic, so agreement is exact).
func TestFig10MetricsWithinGoldenEpochBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full 105-minute trial; skipped in -short mode")
	}
	e := loadEpoch(t)

	r, err := Fig10(context.Background(), e.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if err := CheckFig10Bounds(m); err != nil {
		t.Errorf("fresh Fig10 run: %v", err)
	}
	if m != e.Metrics {
		t.Errorf("fresh Fig10 metrics diverged from golden epoch v%d record:\n got  %+v\n want %+v\n"+
			"re-pin with: make repin REASON=\"...\"", e.Version, m, e.Metrics)
	}
	if r.NetworkSteps != e.NetworkSteps {
		t.Errorf("network steps = %d, epoch pins %d; re-pin with: make repin REASON=\"...\"",
			r.NetworkSteps, e.NetworkSteps)
	}
	// The previous epoch's metrics must also have been inside the bounds:
	// a re-pin may move bits, never the physics envelope.
	if e.PrevMetrics != nil {
		if err := CheckFig10Bounds(*e.PrevMetrics); err != nil {
			t.Errorf("epoch v%d prev_metrics: %v", e.Version, err)
		}
	}
}

// NaN compares false with every bound, so a check written as "below lo or
// above hi" passes it. Any single metric set to NaN must fail the bounds,
// naming that metric.
func TestCheckFig10BoundsRejectsNaN(t *testing.T) {
	base := loadEpoch(t).Metrics
	if err := CheckFig10Bounds(base); err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		m := base
		reflect.ValueOf(&m).Elem().Field(i).SetFloat(math.NaN())
		name := typ.Field(i).Tag.Get("json")
		if err := CheckFig10Bounds(m); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s = NaN: bounds check = %v, want a %s violation", typ.Field(i).Name, err, name)
		}
	}
}
