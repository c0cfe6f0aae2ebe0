// Package psychro implements the moist-air (psychrometric) relations used
// throughout BubbleZERO: the Magnus dew-point formula the paper controls
// against (§III-B, with a = 243.12 and b = 17.62), saturation vapour
// pressure, conversions between relative humidity, humidity ratio and dew
// point, moist-air enthalpy, and air density.
//
// Temperatures are in degrees Celsius, pressures in pascals, humidity
// ratios in kg water vapour per kg dry air, and relative humidity in
// percent (0–100) — matching the units the paper reports.
package psychro

import (
	"fmt"
	"math"
)

const (
	// MagnusA and MagnusB are the Magnus-formula coefficients used by the
	// paper's dew-point equation, valid from MagnusMinC to MagnusMaxC over
	// water.
	MagnusA = 243.12 // °C
	MagnusB = 17.62  // dimensionless

	// MagnusMinC and MagnusMaxC bound the temperatures (°C) the Magnus
	// coefficients are documented for.
	MagnusMinC = -45.0
	MagnusMaxC = 60.0

	// magnusC completes the Magnus saturation-pressure form
	// e_s(T) = magnusC · exp(MagnusB·T / (MagnusA + T)).
	magnusC = 611.2 // Pa at 0 °C

	// AtmPressure is standard sea-level atmospheric pressure.
	AtmPressure = 101325.0 // Pa

	// epsilonWater is the molecular-weight ratio of water to dry air.
	epsilonWater = 0.621945

	// Specific heats and latent heat for enthalpy (kJ/kg basis).
	cpDryAir    = 1.006  // kJ/(kg·K)
	cpVapour    = 1.86   // kJ/(kg·K)
	latentHeat0 = 2501.0 // kJ/kg at 0 °C

	// RDryAir is the specific gas constant of dry air.
	RDryAir = 287.058 // J/(kg·K)
)

// SatPressure returns the saturation vapour pressure over liquid water at
// temperature t (°C) using the Magnus form consistent with the paper's
// dew-point constants.
func SatPressure(t float64) float64 {
	return magnusC * math.Exp(MagnusB*t/(MagnusA+t))
}

// VapourPressure returns the partial pressure of water vapour for air at
// temperature t (°C) and relative humidity rh (%).
func VapourPressure(t, rh float64) float64 {
	return rh / 100 * SatPressure(t)
}

// DewPoint returns the dew-point temperature (°C) for air at temperature t
// (°C) and relative humidity rh (%), using the paper's exact formula:
//
//	Tdew(T,H) = a·γ / (b − γ),  γ = ln(H/100) + b·T/(a+T)
//
// with a = 243.12 and b = 17.62. rh is clamped to a small positive floor
// to keep the logarithm finite for bone-dry air.
func DewPoint(t, rh float64) float64 {
	if rh < 1e-6 {
		rh = 1e-6
	}
	if rh > 100 {
		rh = 100
	}
	gamma := math.Log(rh/100) + MagnusB*t/(MagnusA+t)
	return MagnusA * gamma / (MagnusB - gamma)
}

// HumidityRatio returns the humidity ratio W (kg/kg dry air) of air at
// temperature t (°C), relative humidity rh (%), and total pressure p (Pa).
func HumidityRatio(t, rh, p float64) float64 {
	pv := VapourPressure(t, rh)
	if pv >= p {
		pv = 0.999 * p
	}
	return epsilonWater * pv / (p - pv)
}

// HumidityRatioFromDewPoint returns the humidity ratio of air whose dew
// point is tdew (°C) at total pressure p (Pa). The humidity ratio depends
// only on vapour partial pressure, hence only on the dew point.
func HumidityRatioFromDewPoint(tdew, p float64) float64 {
	pv := SatPressure(tdew)
	if pv >= p {
		pv = 0.999 * p
	}
	return epsilonWater * pv / (p - pv)
}

// DewPointFromHumidityRatio inverts HumidityRatioFromDewPoint: the dew
// point (°C) of air with humidity ratio w (kg/kg) at pressure p (Pa).
func DewPointFromHumidityRatio(w, p float64) float64 {
	if w <= 0 {
		w = 1e-9
	}
	pv := w * p / (epsilonWater + w)
	// Invert e_s(T) = magnusC·exp(b·T/(a+T)).
	x := math.Log(pv / magnusC)
	return MagnusA * x / (MagnusB - x)
}

// RHFromHumidityRatio returns relative humidity (%) for air at dry bulb t
// (°C) with humidity ratio w at pressure p (Pa), clamped to (0, 100].
func RHFromHumidityRatio(t, w, p float64) float64 {
	pv := w * p / (epsilonWater + w)
	rh := 100 * pv / SatPressure(t)
	if rh > 100 {
		return 100
	}
	if rh <= 0 {
		return 1e-6
	}
	return rh
}

// Enthalpy returns the specific enthalpy (kJ/kg dry air) of moist air at
// dry bulb t (°C) and humidity ratio w (kg/kg).
func Enthalpy(t, w float64) float64 {
	return cpDryAir*t + w*(latentHeat0+cpVapour*t)
}

// DryAirDensity returns the density (kg/m³) of dry air at temperature t
// (°C) and pressure p (Pa). Good to within ~1 % for HVAC humidity levels,
// which is the accuracy class of the whole lumped model.
func DryAirDensity(t, p float64) float64 {
	return p / (RDryAir * (t + 273.15))
}

// State is a moist-air state: dry-bulb temperature and humidity ratio at a
// given pressure. It bundles the two prognostic variables the thermal model
// integrates, with derived quantities as methods.
type State struct {
	// T is the dry-bulb temperature in °C.
	T float64
	// W is the humidity ratio in kg water vapour / kg dry air.
	W float64
	// P is the total pressure in Pa.
	P float64
}

// NewStateDewPoint builds a moist-air state from dry bulb and dew point
// (both °C). Pressure defaults to AtmPressure if p <= 0.
func NewStateDewPoint(t, tdew, p float64) State {
	if p <= 0 {
		p = AtmPressure
	}
	return State{T: t, W: HumidityRatioFromDewPoint(tdew, p), P: p}
}

// RH returns the state's relative humidity in percent.
func (s State) RH() float64 { return RHFromHumidityRatio(s.T, s.W, s.P) }

// DewPoint returns the state's dew-point temperature in °C.
func (s State) DewPoint() float64 { return DewPointFromHumidityRatio(s.W, s.P) }

// Enthalpy returns the state's specific enthalpy in kJ/kg dry air.
func (s State) Enthalpy() float64 { return Enthalpy(s.T, s.W) }

// String renders the state for logs.
func (s State) String() string {
	return fmt.Sprintf("%.2f°C / %.2f°C dp / %.1f%%RH", s.T, s.DewPoint(), s.RH())
}

// Mix returns the adiabatic mix of two moist-air streams with dry-air mass
// flows ma and mb (kg/s). Zero total flow returns state a unchanged.
func Mix(a State, ma float64, b State, mb float64) State {
	total := ma + mb
	if total <= 0 {
		return a
	}
	// Mixing conserves dry-air mass, water mass, and enthalpy.
	w := (ma*a.W + mb*b.W) / total
	h := (ma*a.Enthalpy() + mb*b.Enthalpy()) / total
	// Invert h = cp·T + w(L + cpv·T) for T.
	t := (h - w*latentHeat0) / (cpDryAir + w*cpVapour)
	return State{T: t, W: w, P: a.P}
}
