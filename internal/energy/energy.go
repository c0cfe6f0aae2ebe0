// Package energy provides the paper's energy arithmetic (§V): the
// standard COP metric (removed heat / consumed power), TelosB-class
// battery accounting for battery-powered motes, and lifetime projection.
package energy

import (
	"fmt"
	"time"
)

// COP accumulates removed heat and consumed electrical energy and reports
// the paper's metric COP = Removed heat / Consumed power.
type COP struct {
	RemovedJ  float64
	ConsumedJ float64
}

// Add accumulates a step: removedW of heat moved while consuming
// consumedW of electricity, over dt seconds. Negative heat (heating) does
// not count toward removed cooling energy.
func (c *COP) Add(removedW, consumedW, dt float64) {
	if dt <= 0 {
		return
	}
	if removedW > 0 {
		c.RemovedJ += removedW * dt
	}
	if consumedW > 0 {
		c.ConsumedJ += consumedW * dt
	}
}

// Value returns the COP, or 0 if no energy was consumed yet.
func (c COP) Value() float64 {
	if c.ConsumedJ <= 0 {
		return 0
	}
	return c.RemovedJ / c.ConsumedJ
}

// Combine merges two COP accumulations (e.g. the radiant and ventilation
// modules into the whole-system figure).
func Combine(cops ...COP) COP {
	var out COP
	for _, c := range cops {
		out.RemovedJ += c.RemovedJ
		out.ConsumedJ += c.ConsumedJ
	}
	return out
}

// TelosB energy constants calibrated against the paper's figures: 54 mW
// radio power during a ~37 ms transmit window gives ≈2 mJ per packet;
// 0.3 mW during a ~50 ms sensor acquisition gives 15 µJ per sample; the
// remaining idle draw (MCU sleep, timer, RX checks) is what makes a
// 2-second fixed sender last ≈0.7 years and the adaptive sender ≈3.2
// years on two AA cells (§V-C).
const (
	// TxPowerW is the radio power while transmitting (paper: 54 mW).
	TxPowerW = 0.054
	// TxWindowS is the radio-on window per packet (wakeup + CCA + frame).
	TxWindowS = 0.037
	// TxEnergyPerPacketJ is the per-packet transmission energy.
	TxEnergyPerPacketJ = TxPowerW * TxWindowS
	// SamplePowerW is the sensor power during acquisition (paper: 0.3 mW).
	SamplePowerW = 0.0003
	// SampleWindowS is the acquisition duration per sample.
	SampleWindowS = 0.05
	// SampleEnergyJ is the per-sample acquisition energy.
	SampleEnergyJ = SamplePowerW * SampleWindowS
	// IdlePowerW is the always-on baseline draw of a duty-cycled mote.
	IdlePowerW = 0.00021
	// TwoAACapacityJ is the usable energy of two AA cells (≈2500 mAh at
	// 3 V).
	TwoAACapacityJ = 27000.0
)

// Battery tracks the charge of a battery-powered mote.
type Battery struct {
	capacityJ float64
	usedJ     float64
}

// NewBattery returns a battery with the given capacity in joules.
func NewBattery(capacityJ float64) (*Battery, error) {
	if capacityJ <= 0 {
		return nil, fmt.Errorf("energy: battery capacity must be > 0, got %v", capacityJ)
	}
	return &Battery{capacityJ: capacityJ}, nil
}

// NewTwoAA returns the standard two-AA-cell TelosB battery.
func NewTwoAA() *Battery {
	b, err := NewBattery(TwoAACapacityJ)
	if err != nil {
		panic(err) // unreachable: constant capacity is positive
	}
	return b
}

// Drain removes j joules. Draining below empty pins the battery at empty.
func (b *Battery) Drain(j float64) {
	if j <= 0 {
		return
	}
	b.usedJ += j
	if b.usedJ > b.capacityJ {
		b.usedJ = b.capacityJ
	}
}

// ScaleRemaining rescales the remaining charge to frac of its current
// value (frac clamped to [0, 1]). Fault plans use it to fast-forward a
// mote toward exhaustion without simulating months of idle draw: the
// subsequent discharge still follows the real per-transmission accounting,
// so duty-cycling schemes are compared on equal footing.
func (b *Battery) ScaleRemaining(frac float64) {
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	b.usedJ = b.capacityJ - b.RemainingJ()*frac
}

// UsedJ returns the consumed energy.
func (b *Battery) UsedJ() float64 { return b.usedJ }

// RemainingJ returns the remaining energy.
func (b *Battery) RemainingJ() float64 { return b.capacityJ - b.usedJ }

// Depleted reports whether the battery is empty.
func (b *Battery) Depleted() bool { return b.usedJ >= b.capacityJ }

// Lifetime projects how long a full battery of this capacity lasts at the
// given average power draw.
func (b *Battery) Lifetime(avgPowerW float64) time.Duration {
	if avgPowerW <= 0 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(b.capacityJ / avgPowerW * float64(time.Second))
}

// Years renders a duration in years for lifetime reporting.
func Years(d time.Duration) float64 {
	return d.Hours() / 24 / 365
}
