package psychro

// Terms holds the pressure-dependent constant of the dry-air density so
// the room kernel pays for it once per configuration, not once per zone
// per tick: DryAirDensity recomputes p / RDryAir on every call, and at
// four zones per building and thousands of buildings per fleet epoch that
// divide sits in the innermost loop.
//
// The hoisted form is algebraically identical to the scalar reference but
// associates the floating-point operations differently, so results can
// differ in the last few mantissa bits. terms_test.go pins Density to
// DryAirDensity within 1e-9 relative error over a seeded input sweep.
// Code that needs bit-identical agreement with the scalar functions (the
// lazily-cached derived state in internal/thermal, for example) keeps
// calling the scalar forms; the room kernel's per-zone flow math uses
// Terms under the golden-epoch tolerance discipline.
type Terms struct {
	// P is the total pressure the terms were built for, in Pa.
	P float64
	// rhoNum is P / RDryAir: the dry-air density numerator, so density
	// is a single divide rhoNum / T_K instead of p / (R · T_K).
	rhoNum float64
}

// NewTerms precomputes the hoisted constants for total pressure p (Pa).
// Pressure defaults to AtmPressure if p <= 0.
func NewTerms(p float64) Terms {
	if p <= 0 {
		p = AtmPressure
	}
	return Terms{P: p, rhoNum: p / RDryAir}
}

// Density returns the dry-air density (kg/m³) at dry bulb t (°C) — the
// hoisted counterpart of DryAirDensity(t, tm.P).
func (tm Terms) Density(t float64) float64 {
	return tm.rhoNum / (t + 273.15)
}
