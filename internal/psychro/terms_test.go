package psychro

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The room kernel evaluates its per-zone air density through Terms, whose
// hoisted constant fold associates the float operations differently from
// the scalar reference function. The golden-epoch discipline allows that
// — paper metrics are asserted within tolerance, not bit-identity — but
// the two forms must stay numerically interchangeable. This property
// sweep pins Terms.Density to DryAirDensity within 1e-9 relative error
// across the full HVAC operating envelope (and well beyond it), at three
// total pressures.
func TestTermsMatchScalarReference(t *testing.T) {
	pressures := []float64{AtmPressure, 90000, 104000}
	rng := rand.New(rand.NewPCG(0xb0b2, 0x5eed))

	relErr := func(got, want float64) float64 {
		d := math.Abs(got - want)
		if m := math.Abs(want); m > 1 {
			return d / m
		}
		return d
	}

	for _, p := range pressures {
		tm := NewTerms(p)
		if tm.P != p {
			t.Fatalf("NewTerms(%v).P = %v", p, tm.P)
		}
		for i := 0; i < 200000; i++ {
			// Dry bulb −40…+60 °C: the Magnus validity range, spanning
			// every climate boundary the fleet parameterisation can
			// generate.
			tc := -40 + 100*rng.Float64()

			if got, want := tm.Density(tc), DryAirDensity(tc, p); relErr(got, want) > 1e-9 {
				t.Fatalf("p=%v t=%v: Terms.Density=%v, DryAirDensity=%v", p, tc, got, want)
			}
		}
	}
}

// A non-positive pressure defaults to the standard atmosphere, the same
// pressure the scalar reference is called with.
func TestTermsEdgeCasesMatchScalar(t *testing.T) {
	tm := NewTerms(0) // defaults to AtmPressure
	if tm.P != AtmPressure {
		t.Fatalf("NewTerms(0).P = %v, want AtmPressure", tm.P)
	}
	if got, want := tm.Density(20), DryAirDensity(20, AtmPressure); math.Abs(got-want) > 1e-9*want {
		t.Errorf("NewTerms(0).Density(20) = %v, DryAirDensity = %v", got, want)
	}
}
