// Package exergy implements the second-law quantities behind the paper's
// "low exergy" argument (§II): the exergy content of a heat flux, the
// Carnot coefficient of performance, and a Carnot-fraction chiller model
// whose electrical consumption depends on the temperature lift between the
// cold medium it produces and the environment it rejects heat to.
//
// This is the piece that makes the 45.5 % efficiency gain of Figure 11 an
// *output* of the simulation rather than an assumed constant: producing
// 18 °C water requires far less lift — and therefore less work per joule
// moved — than producing 8 °C air.
package exergy

import (
	"fmt"
	"math"
)

// KelvinOffset converts °C to K.
const KelvinOffset = 273.15

// OfHeatFlux returns the exergy (W) of moving heat flux q (W) at working
// temperature tWork (°C) relative to reference temperature tRef (°C),
// using the paper's definition Ex = Q·(1 − T/T₀) with absolute
// temperatures. For cooling below the reference the result is positive:
// the flux carries useful work potential that the chiller must supply.
func OfHeatFlux(q, tWork, tRef float64) float64 {
	t := tWork + KelvinOffset
	t0 := tRef + KelvinOffset
	return q * (1 - t/t0)
}

// CarnotCOPCooling returns the ideal (Carnot) coefficient of performance
// of a refrigeration cycle pumping heat from tEvap to tCond (both °C):
// COP_Carnot = T_evap / (T_cond − T_evap) in Kelvin. It returns +Inf when
// tCond <= tEvap (no lift required).
func CarnotCOPCooling(tEvap, tCond float64) float64 {
	lift := tCond - tEvap
	if lift <= 0 {
		return math.Inf(1)
	}
	return (tEvap + KelvinOffset) / lift
}

// Chiller is a vapour-compression chiller modelled as a fixed fraction of
// the Carnot limit with fixed heat-exchanger approach temperatures. The
// evaporator runs EvapApproachK below the cold medium it produces, and the
// condenser runs CondApproachK above the environment it rejects to.
type Chiller struct {
	// Eta is the second-law (Carnot) efficiency, typically 0.25–0.45 for
	// small water chillers.
	Eta float64
	// EvapApproachK is the evaporator approach: the evaporator refrigerant
	// temperature is the produced medium temperature minus this (K).
	EvapApproachK float64
	// CondApproachK is the condenser approach above the rejection
	// temperature (K).
	CondApproachK float64
}

// Validate checks the chiller parameters.
func (c Chiller) Validate() error {
	if c.Eta <= 0 || c.Eta > 1 {
		return fmt.Errorf("exergy: chiller Eta must be in (0, 1], got %v", c.Eta)
	}
	if c.EvapApproachK < 0 || c.CondApproachK < 0 {
		return fmt.Errorf("exergy: chiller approaches must be >= 0, got evap %v cond %v",
			c.EvapApproachK, c.CondApproachK)
	}
	return nil
}

// COP returns the chiller coefficient of performance when producing a cold
// medium at tSupply (°C) while rejecting heat to an environment at
// tReject (°C).
func (c Chiller) COP(tSupply, tReject float64) float64 {
	tEvap := tSupply - c.EvapApproachK
	tCond := tReject + c.CondApproachK
	carnot := CarnotCOPCooling(tEvap, tCond)
	if math.IsInf(carnot, 1) {
		return math.Inf(1)
	}
	return c.Eta * carnot
}

// Power returns the electrical power (W) the chiller draws to move thermal
// power q (W) out of a medium at tSupply (°C) with rejection at tReject
// (°C). Zero or negative q draws no power.
func (c Chiller) Power(q, tSupply, tReject float64) float64 {
	if q <= 0 {
		return 0
	}
	cop := c.COP(tSupply, tReject)
	if math.IsInf(cop, 1) {
		return 0
	}
	return q / cop
}

// DefaultChiller returns the chiller parameterisation used across the
// repository. With Eta = 0.30 and 4 K approaches it reproduces the paper's
// measured COP band: ≈4.5 for the 18 °C radiant loop, ≈2.9 for the 8 °C
// ventilation loop, and ≈2.8 for a conventional 8 °C-air system with its
// extra coil approach (see internal/baseline).
func DefaultChiller() Chiller {
	return Chiller{Eta: 0.30, EvapApproachK: 4, CondApproachK: 4}
}
