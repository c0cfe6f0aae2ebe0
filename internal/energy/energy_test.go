package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCOPMatchesPaperArithmetic(t *testing.T) {
	// Paper §V-B: radiant 964.8 W removed / 213.4 W consumed = 4.52;
	// ventilation 213.2/75.6 = 2.82; combined 4.07.
	var radiant, vent COP
	radiant.Add(964.8, 213.4, 3600)
	vent.Add(213.2, 75.6, 3600)
	if got := radiant.Value(); math.Abs(got-4.52) > 0.01 {
		t.Errorf("radiant COP = %.3f, want 4.52", got)
	}
	if got := vent.Value(); math.Abs(got-2.82) > 0.01 {
		t.Errorf("vent COP = %.3f, want 2.82", got)
	}
	total := Combine(radiant, vent)
	if got := total.Value(); math.Abs(got-4.07) > 0.01 {
		t.Errorf("combined COP = %.3f, want 4.07", got)
	}
	// Improvement over the AirCon 2.8 baseline: up to 45.5 %.
	if imp := (total.Value() - 2.8) / 2.8 * 100; math.Abs(imp-45.5) > 1.5 {
		t.Errorf("improvement = %.1f%%, want ≈45.5%%", imp)
	}
}

func TestCOPIgnoresHeatingAndZeroDt(t *testing.T) {
	var c COP
	c.Add(-100, 50, 10)
	if c.RemovedJ != 0 {
		t.Errorf("heating counted as removed heat: %v", c.RemovedJ)
	}
	c.Add(100, 50, 0)
	if c.ConsumedJ != 500 {
		t.Errorf("ConsumedJ = %v, want 500 (zero-dt step ignored)", c.ConsumedJ)
	}
}

func TestCOPZeroConsumption(t *testing.T) {
	var c COP
	if c.Value() != 0 {
		t.Errorf("empty COP = %v, want 0", c.Value())
	}
}

func TestBatteryDrain(t *testing.T) {
	b, err := NewBattery(100)
	if err != nil {
		t.Fatal(err)
	}
	b.Drain(30)
	if b.RemainingJ() != 70 || b.UsedJ() != 30 {
		t.Errorf("remaining %v used %v", b.RemainingJ(), b.UsedJ())
	}
	if b.Depleted() {
		t.Error("battery wrongly depleted")
	}
	b.Drain(1000)
	if !b.Depleted() || b.RemainingJ() != 0 {
		t.Errorf("over-drain: remaining %v depleted %v", b.RemainingJ(), b.Depleted())
	}
	b.Drain(-5)
	if b.UsedJ() != 100 {
		t.Error("negative drain changed state")
	}
}

func TestNewBatteryValidation(t *testing.T) {
	if _, err := NewBattery(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBattery(-10); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestFractionRemaining(t *testing.T) {
	b := NewTwoAA()
	if got := b.RemainingJ() / b.capacityJ; got != 1 {
		t.Errorf("fresh battery fraction = %v", got)
	}
	b.Drain(TwoAACapacityJ / 2)
	if got := b.RemainingJ() / b.capacityJ; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half-drained fraction = %v", got)
	}
}

// moteAveragePower is the long-run average power (W) of a duty-cycled
// bt-device that samples every tsplS seconds and transmits every tsndS
// seconds: the idle draw plus the per-sample and per-packet energies.
func moteAveragePower(tsplS, tsndS float64) float64 {
	return IdlePowerW + SampleEnergyJ/tsplS + TxEnergyPerPacketJ/tsndS
}

func TestLifetimeProjectionMatchesPaper(t *testing.T) {
	b := NewTwoAA()
	// Fixed scheme: T_snd = T_spl = 2 s → ≈0.7 years (§V-C).
	fixed := Years(b.Lifetime(moteAveragePower(2, 2)))
	if fixed < 0.55 || fixed > 0.9 {
		t.Errorf("fixed-scheme lifetime = %.2f y, want ≈0.7", fixed)
	}
	// Adaptive scheme: mean T_snd ≈ 48 s → ≈3.2 years.
	adaptive := Years(b.Lifetime(moteAveragePower(2, 48)))
	if adaptive < 2.6 || adaptive > 3.9 {
		t.Errorf("adaptive-scheme lifetime = %.2f y, want ≈3.2", adaptive)
	}
	if ratio := adaptive / fixed; ratio < 3.5 || ratio > 6.5 {
		t.Errorf("lifetime ratio = %.2f, want ≈4.6", ratio)
	}
}

func TestAlwaysOnLastsUnderAWeek(t *testing.T) {
	// §IV-B: "It is prohibitive to configure bt-devices in an always-on
	// mode; otherwise, batteries last less than one week." An always-on
	// radio draws the full TX-class power continuously.
	b := NewTwoAA()
	life := b.Lifetime(TxPowerW)
	if life > 7*24*time.Hour {
		t.Errorf("always-on lifetime = %v, want < 1 week", life)
	}
}

func TestLifetimeZeroPower(t *testing.T) {
	b := NewTwoAA()
	if got := b.Lifetime(0); got <= 0 {
		t.Errorf("zero-power lifetime = %v, want max duration", got)
	}
}

// Property: battery can never report negative remaining charge.
func TestBatteryNeverNegativeProperty(t *testing.T) {
	f := func(drains []uint16) bool {
		b := NewTwoAA()
		for _, d := range drains {
			b.Drain(float64(d))
		}
		return b.RemainingJ() >= 0 && b.RemainingJ()/b.capacityJ >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
