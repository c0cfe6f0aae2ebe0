package psychro

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSatPressureReferencePoints(t *testing.T) {
	// Reference values for the Magnus form (±1.5 % of standard tables).
	tests := []struct {
		tC   float64
		want float64 // Pa
		tol  float64
	}{
		{0, 611.2, 1},
		{10, 1228, 15},
		{20, 2339, 30},
		{25, 3169, 40},
		{30, 4246, 60},
	}
	for _, tc := range tests {
		got := SatPressure(tc.tC)
		if !almostEqual(got, tc.want, tc.tol) {
			t.Errorf("SatPressure(%.0f) = %.1f Pa, want %.1f±%.1f", tc.tC, got, tc.want, tc.tol)
		}
	}
}

func TestSatPressureMonotone(t *testing.T) {
	prev := SatPressure(-20)
	for tc := -19.0; tc <= 50; tc++ {
		cur := SatPressure(tc)
		if cur <= prev {
			t.Fatalf("SatPressure not monotone at %.0f°C: %v <= %v", tc, cur, prev)
		}
		prev = cur
	}
}

func TestDewPointSaturatedAirEqualsDryBulb(t *testing.T) {
	for _, tc := range []float64{5, 15, 25, 28.9, 35} {
		got := DewPoint(tc, 100)
		if !almostEqual(got, tc, 1e-9) {
			t.Errorf("DewPoint(%.1f, 100) = %.6f, want %.1f", tc, got, tc)
		}
	}
}

func TestDewPointKnownValues(t *testing.T) {
	// Standard psychrometric reference combinations.
	tests := []struct {
		tC, rh, want, tol float64
	}{
		{25, 50, 13.9, 0.2},
		{30, 80, 26.2, 0.3},
		{20, 60, 12.0, 0.3},
		{28.9, 92, 27.4, 0.3}, // the paper's outdoor condition: ~92 % RH gives 27.4 °C dp
	}
	for _, tc := range tests {
		got := DewPoint(tc.tC, tc.rh)
		if !almostEqual(got, tc.want, tc.tol) {
			t.Errorf("DewPoint(%.1f, %.0f%%) = %.2f, want %.1f±%.1f", tc.tC, tc.rh, got, tc.want, tc.tol)
		}
	}
}

func TestDewPointBelowDryBulbWhenUnsaturated(t *testing.T) {
	for rh := 10.0; rh < 100; rh += 10 {
		for tc := 0.0; tc <= 40; tc += 5 {
			if dp := DewPoint(tc, rh); dp >= tc {
				t.Fatalf("DewPoint(%.0f, %.0f) = %.2f not below dry bulb", tc, rh, dp)
			}
		}
	}
}

func TestDewPointRHRoundTrip(t *testing.T) {
	f := func(tRaw, rhRaw uint16) bool {
		tC := float64(tRaw%400)/10 + 1    // 0.1 … 41 °C
		rh := float64(rhRaw%950)/10 + 5.0 // 5 … 100 %
		dp := DewPoint(tC, rh)
		back := 100 * SatPressure(dp) / SatPressure(tC)
		return almostEqual(back, rh, 0.01)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHumidityRatioDewPointRoundTrip(t *testing.T) {
	f := func(dpRaw uint16) bool {
		dp := float64(dpRaw%350)/10 + 0.1 // 0.1 … 35 °C
		w := HumidityRatioFromDewPoint(dp, AtmPressure)
		back := DewPointFromHumidityRatio(w, AtmPressure)
		return almostEqual(back, dp, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHumidityRatioKnownValue(t *testing.T) {
	// 25 °C, 50 % RH at sea level → W ≈ 0.0099 kg/kg.
	w := HumidityRatio(25, 50, AtmPressure)
	if !almostEqual(w, 0.0099, 0.0004) {
		t.Errorf("HumidityRatio(25,50) = %.5f, want ≈0.0099", w)
	}
}

func TestHumidityRatioIncreasingInRH(t *testing.T) {
	prev := -1.0
	for rh := 5.0; rh <= 100; rh += 5 {
		w := HumidityRatio(25, rh, AtmPressure)
		if w <= prev {
			t.Fatalf("HumidityRatio not increasing at rh=%.0f", rh)
		}
		prev = w
	}
}

func TestEnthalpyKnownValue(t *testing.T) {
	// 25 °C, W = 0.010 → h ≈ 25.15 + 25.475 ≈ 50.6 kJ/kg.
	h := Enthalpy(25, 0.010)
	if !almostEqual(h, 50.6, 0.3) {
		t.Errorf("Enthalpy(25, 0.010) = %.2f, want ≈50.6", h)
	}
}

func TestDryAirDensityKnownValue(t *testing.T) {
	rho := DryAirDensity(20, AtmPressure)
	if !almostEqual(rho, 1.204, 0.01) {
		t.Errorf("DryAirDensity(20) = %.4f, want ≈1.204", rho)
	}
}

// rhState is the moist-air state at dry bulb tC (°C) and relative
// humidity rh (%) at standard pressure.
func rhState(tC, rh float64) State {
	return State{T: tC, W: HumidityRatio(tC, rh, AtmPressure), P: AtmPressure}
}

func TestStateConstructionAndDerived(t *testing.T) {
	s := rhState(25, 65)
	if !almostEqual(s.RH(), 65, 0.01) {
		t.Errorf("RH round trip = %.3f, want 65", s.RH())
	}
	dp := s.DewPoint()
	if dp >= s.T || dp < 0 {
		t.Errorf("implausible dew point %.2f for %v", dp, s)
	}
}

func TestStateDewPointConstruction(t *testing.T) {
	s := NewStateDewPoint(28.9, 27.4, 0)
	if !almostEqual(s.DewPoint(), 27.4, 1e-6) {
		t.Errorf("DewPoint = %.4f, want 27.4", s.DewPoint())
	}
	if s.RH() < 85 || s.RH() > 100 {
		t.Errorf("tropical outdoor RH = %.1f%%, want ~92%%", s.RH())
	}
}

func TestMixConservesWaterAndEnthalpy(t *testing.T) {
	a := rhState(30, 80)
	b := rhState(18, 40)
	m := Mix(a, 2, b, 3)
	wantW := (2*a.W + 3*b.W) / 5
	if !almostEqual(m.W, wantW, 1e-12) {
		t.Errorf("mixed W = %v, want %v", m.W, wantW)
	}
	wantH := (2*a.Enthalpy() + 3*b.Enthalpy()) / 5
	if !almostEqual(m.Enthalpy(), wantH, 1e-9) {
		t.Errorf("mixed h = %v, want %v", m.Enthalpy(), wantH)
	}
	if m.T <= b.T || m.T >= a.T {
		t.Errorf("mixed T = %.2f outside (%v, %v)", m.T, b.T, a.T)
	}
}

func TestMixZeroFlowReturnsFirst(t *testing.T) {
	a := rhState(30, 80)
	b := rhState(18, 40)
	m := Mix(a, 0, b, 0)
	if m != a {
		t.Errorf("Mix with zero flows = %+v, want %+v", m, a)
	}
}

func TestMixIsSymmetricProperty(t *testing.T) {
	f := func(t1Raw, t2Raw, rh1Raw, rh2Raw uint8) bool {
		t1 := float64(t1Raw%35) + 5
		t2 := float64(t2Raw%35) + 5
		rh1 := float64(rh1Raw%90) + 5
		rh2 := float64(rh2Raw%90) + 5
		a := rhState(t1, rh1)
		b := rhState(t2, rh2)
		m1 := Mix(a, 1, b, 2)
		m2 := Mix(b, 2, a, 1)
		return almostEqual(m1.T, m2.T, 1e-9) && almostEqual(m1.W, m2.W, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDewPointExtremeRHClamped(t *testing.T) {
	if dp := DewPoint(25, 0); math.IsNaN(dp) || math.IsInf(dp, 0) {
		t.Errorf("DewPoint(25, 0) = %v, want finite", dp)
	}
	if dp := DewPoint(25, 150); !almostEqual(dp, 25, 1e-9) {
		t.Errorf("DewPoint(25, 150) = %v, want clamp to 25", dp)
	}
}

func TestStateString(t *testing.T) {
	s := NewStateDewPoint(25, 18, 0)
	str := s.String()
	if len(str) == 0 || str[0] != '2' {
		t.Errorf("State.String = %q", str)
	}
}
