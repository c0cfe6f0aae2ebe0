package exergy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOfHeatFluxSign(t *testing.T) {
	// Moving heat at a temperature below reference carries positive exergy
	// (work must be supplied to create the cold).
	if ex := OfHeatFlux(1000, 18, 28.9); ex <= 0 {
		t.Errorf("exergy of 18°C flux vs 28.9°C ref = %v, want > 0", ex)
	}
	// At the reference temperature the exergy is zero.
	if ex := OfHeatFlux(1000, 25, 25); math.Abs(ex) > 1e-9 {
		t.Errorf("exergy at reference temp = %v, want 0", ex)
	}
}

func TestOfHeatFluxLowerTempMoreExergy(t *testing.T) {
	// The paper's core claim: a higher temperature gradient (lower working
	// temperature for cooling) costs dramatically more exergy.
	ex18 := math.Abs(OfHeatFlux(1000, 18, 28.9))
	ex8 := math.Abs(OfHeatFlux(1000, 8, 28.9))
	if ex8 <= ex18 {
		t.Errorf("exergy at 8°C (%v) should exceed exergy at 18°C (%v)", ex8, ex18)
	}
	if ratio := ex8 / ex18; ratio < 1.5 {
		t.Errorf("exergy ratio 8°C/18°C = %.2f, expected well above 1.5", ratio)
	}
}

func TestOfHeatFluxLinearInQ(t *testing.T) {
	f := func(qRaw uint16) bool {
		q := float64(qRaw)
		return math.Abs(OfHeatFlux(2*q, 18, 28.9)-2*OfHeatFlux(q, 18, 28.9)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCarnotCOPCoolingKnownValue(t *testing.T) {
	// Evap 0°C, cond 30°C: 273.15/30 ≈ 9.105.
	got := CarnotCOPCooling(0, 30)
	if math.Abs(got-9.105) > 0.01 {
		t.Errorf("CarnotCOPCooling(0,30) = %v, want ≈9.105", got)
	}
}

func TestCarnotCOPCoolingNoLift(t *testing.T) {
	if got := CarnotCOPCooling(20, 20); !math.IsInf(got, 1) {
		t.Errorf("zero lift COP = %v, want +Inf", got)
	}
	if got := CarnotCOPCooling(25, 20); !math.IsInf(got, 1) {
		t.Errorf("negative lift COP = %v, want +Inf", got)
	}
}

func TestCarnotCOPDecreasesWithLift(t *testing.T) {
	prev := math.Inf(1)
	for lift := 5.0; lift <= 50; lift += 5 {
		cop := CarnotCOPCooling(20-lift, 20)
		if cop >= prev {
			t.Fatalf("Carnot COP not decreasing at lift %v", lift)
		}
		prev = cop
	}
}

func TestChillerValidate(t *testing.T) {
	valid := DefaultChiller()
	if err := valid.Validate(); err != nil {
		t.Errorf("default chiller invalid: %v", err)
	}
	bad := []Chiller{
		{Eta: 0, EvapApproachK: 4, CondApproachK: 4},
		{Eta: 1.5, EvapApproachK: 4, CondApproachK: 4},
		{Eta: 0.3, EvapApproachK: -1, CondApproachK: 4},
		{Eta: 0.3, EvapApproachK: 4, CondApproachK: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("chiller %d should be invalid: %+v", i, c)
		}
	}
}

func TestDefaultChillerReproducesPaperCOPBand(t *testing.T) {
	c := DefaultChiller()
	outdoor := 28.9
	// Radiant loop: 18 °C supply water → paper measures COP 4.52.
	radiant := c.COP(18, outdoor)
	if radiant < 4.0 || radiant > 5.1 {
		t.Errorf("radiant-loop chiller COP = %.2f, want in [4.0, 5.1] (paper 4.52)", radiant)
	}
	// Ventilation loop: 8 °C coil water → paper measures COP 2.82.
	vent := c.COP(8, outdoor)
	if vent < 2.5 || vent > 3.3 {
		t.Errorf("vent-loop chiller COP = %.2f, want in [2.5, 3.3] (paper 2.82)", vent)
	}
	if radiant <= vent {
		t.Errorf("18°C loop COP (%.2f) must exceed 8°C loop COP (%.2f)", radiant, vent)
	}
}

func TestChillerPower(t *testing.T) {
	c := DefaultChiller()
	p := c.Power(964.8, 18, 28.9)
	// Paper: radiant module moves 964.8 W with 213.4 W of electricity.
	if p < 180 || p < 0 || p > 250 {
		t.Errorf("chiller power for 964.8 W @ 18°C = %.1f W, want ≈213 W", p)
	}
	if got := c.Power(0, 18, 28.9); got != 0 {
		t.Errorf("zero heat → power %v, want 0", got)
	}
	if got := c.Power(-50, 18, 28.9); got != 0 {
		t.Errorf("negative heat → power %v, want 0", got)
	}
}

func TestChillerPowerZeroWhenNoLift(t *testing.T) {
	c := Chiller{Eta: 0.3, EvapApproachK: 0, CondApproachK: 0}
	if got := c.Power(1000, 30, 20); got != 0 {
		t.Errorf("free cooling power = %v, want 0", got)
	}
}

// Sweeping the supply temperature from 8 to 20 °C against the paper's
// 28.9 °C rejection: the chiller COP must increase and the exergy of
// moving 1 kW must decrease with every 2 K step.
func TestLiftSweepShape(t *testing.T) {
	c := DefaultChiller()
	for ts := 10.0; ts <= 20; ts += 2 {
		if c.COP(ts, 28.9) <= c.COP(ts-2, 28.9) {
			t.Errorf("COP not increasing at %v°C", ts)
		}
		if OfHeatFlux(1000, ts, 28.9) >= OfHeatFlux(1000, ts-2, 28.9) {
			t.Errorf("exergy not decreasing at %v°C", ts)
		}
	}
}

// Property: chiller COP is monotonically increasing in supply temperature
// for any rejection temperature above it.
func TestChillerCOPMonotoneProperty(t *testing.T) {
	c := DefaultChiller()
	f := func(t1Raw, dRaw uint8) bool {
		t1 := float64(t1Raw%20) + 2   // 2 … 22 °C
		d := float64(dRaw%10)/2 + 0.5 // 0.5 … 5.5 °C higher
		reject := 35.0                // hot tropical rejection
		return c.COP(t1+d, reject) > c.COP(t1, reject)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
