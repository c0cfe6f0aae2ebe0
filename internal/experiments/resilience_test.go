package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"bubblezero/internal/core"
	"bubblezero/internal/fault"
)

// Resilience and lifetime experiment tests. The full matrix runs in the
// binary; here a small sub-matrix proves the plumbing: determinism across
// same-seed replays, bounded condensation, recovery after clearance, and
// the empty-plan bit-identity guarantee at the experiment level.

// digestFig10 runs Fig10 and hashes its bit-exact trace dump.
func digestFig10(t *testing.T, opts ...core.Option) string {
	t.Helper()
	r, err := Fig10(context.Background(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := r.Recorder.WriteExact(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestFig10EmptyFaultPlanMatchesGolden(t *testing.T) {
	// A system carrying an (empty) fault plan threads the watchdog-free
	// path and must reproduce the current golden epoch's digest bit for
	// bit.
	if testing.Short() {
		t.Skip("full 105-minute trial; skipped in -short mode")
	}
	e := loadEpoch(t)
	got := digestFig10(t, core.WithFaultPlan(fault.MustPlan()))
	if got != e.Digest {
		t.Errorf("empty fault plan changed the Fig10 trace:\n got  %s\n want %s", got, e.Digest)
	}
}

func TestResilienceCaseDeterministicAcrossReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("two 120-minute trials; skipped in -short mode")
	}
	rc := ResilienceCase{
		Name: "replay",
		Plan: fault.MustPlan(
			fault.BurstLoss(60*time.Minute, 10*time.Minute, 0.7),
			fault.ChillerTrip(70*time.Minute, 5*time.Minute, fault.LoopVent),
		),
		ClearAt: 80 * time.Minute,
	}
	a, err := runResilienceCase(context.Background(), 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runResilienceCase(context.Background(), 1, rc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed + same plan diverged:\n%+v\n%+v", a, b)
	}
}

func TestResilienceSubMatrixBoundedAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case 120-minute trials; skipped in -short mode")
	}
	full := ResilienceMatrix()
	pick := map[string]bool{"jam-15min": true, "chiller-trip-radiant": true, "pump-degrade-severe": true}
	var cases []ResilienceCase
	for _, c := range full {
		if pick[c.Name] {
			cases = append(cases, c)
		}
	}
	if len(cases) != len(pick) {
		t.Fatalf("matrix lost named cases: have %d, want %d", len(cases), len(pick))
	}
	res, err := testSuite.Resilience(context.Background(), 1, cases)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.CondensationS > 60 {
			t.Errorf("%s: condensation %.0f s, want the safety bound to hold", o.Name, o.CondensationS)
		}
		if o.RecoveredMin < 0 {
			t.Errorf("%s: never recovered after clearance (final %.2f °C / %.2f °C dew)",
				o.Name, o.FinalTempC, o.FinalDewC)
		}
	}
	// The jam must have exercised the watchdog; the plant faults must not.
	byName := map[string]ResilienceOutcome{}
	for _, o := range res.Outcomes {
		byName[o.Name] = o
	}
	if byName["jam-15min"].DegradeTransitions == 0 {
		t.Error("15-minute jam produced no degradation transitions")
	}
	if byName["chiller-trip-radiant"].DegradeTransitions != 0 {
		t.Error("chiller trip tripped the staleness watchdog; plant faults must not look like sensor faults")
	}
}

func TestLifetimeAdaptiveOutlastsFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-hour trials; skipped in -short mode")
	}
	res, err := testSuite.Lifetime(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adaptive.Motes) != 18 || len(res.Fixed.Motes) != 18 {
		t.Fatalf("expected 18 motes per run, got %d/%d", len(res.Adaptive.Motes), len(res.Fixed.Motes))
	}
	if res.Fixed.MedianMin <= 0 {
		t.Fatalf("fixed-rate median lifetime %.1f min; the scale-down fault did not bite", res.Fixed.MedianMin)
	}
	if r := res.Ratio(); r < 1.5 {
		t.Errorf("adaptive/fixed median lifetime ratio %.2f, want > 1.5 (adaptive %0.f min, fixed %.0f min)",
			r, res.Adaptive.MedianMin, res.Fixed.MedianMin)
	}
}
