// Package vent implements BubbleZERO's distributed ventilation module
// (§III-C): four airbox + CO₂flap pairs, one per subspace, that
// dehumidify outdoor air over an 8 °C copper coil and ventilate each
// subspace on demand. The module computes the target outlet dew point
// T_a,t_dew from the occupant preference, the radiant supply temperature,
// and the current room dew point; a PID on the coil water flow tracks it
// (the paper: "The flow rate of the circulated water inside the copper
// array ... is linearly proportional to the dew point of the air"); and
// the fan speed is sized to neutralise the humidity and CO₂ errors within
// a fixed horizon, F_vent = max{F_humd, F_CO2}.
package vent

import (
	"fmt"
	"math"

	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
)

// NumBoxes is the number of airbox/CO₂flap pairs (one per subspace).
const NumBoxes = 4

// CoilConfig describes the copper-pipe dehumidification coil.
type CoilConfig struct {
	// DewDropPerLpm is the outlet dew-point reduction per L/min of coil
	// water flow — the linear law the paper states.
	DewDropPerLpm float64
	// ApproachK is how close the outlet dew point can get to the coil
	// water temperature.
	ApproachK float64
	// MaxFlowLpm is the maximum coil water flow.
	MaxFlowLpm float64
	// ReheatK is the temperature rise of the saturated coil-outlet air
	// before it enters the room (fan heat, duct gains).
	ReheatK float64
	// TauS is the coil's thermal time constant: the outlet dew point
	// relaxes toward its steady-state value with this first-order lag
	// (copper mass and water content are not instantaneous).
	TauS float64
}

// DefaultCoil returns the calibrated coil model.
func DefaultCoil() CoilConfig {
	return CoilConfig{DewDropPerLpm: 10, ApproachK: 1, MaxFlowLpm: 2, ReheatK: 2, TauS: 25}
}

// Validate checks the coil parameters.
func (c CoilConfig) Validate() error {
	if c.DewDropPerLpm <= 0 || c.MaxFlowLpm <= 0 {
		return fmt.Errorf("vent: coil DewDropPerLpm and MaxFlowLpm must be > 0")
	}
	if c.ApproachK < 0 || c.ReheatK < 0 {
		return fmt.Errorf("vent: coil ApproachK and ReheatK must be >= 0")
	}
	if c.TauS < 0 {
		return fmt.Errorf("vent: coil TauS must be >= 0")
	}
	return nil
}

// FanConfig describes one airbox's DC fan bank (four fans per box).
type FanConfig struct {
	// MaxFlowM3s is the ventilation volume flow at full speed.
	MaxFlowM3s float64
	// MaxPowerW is the electrical draw at full speed.
	MaxPowerW float64
	// StandbyW is drawn whenever the box is powered.
	StandbyW float64
}

// DefaultFan returns the calibrated fan bank.
func DefaultFan() FanConfig {
	return FanConfig{MaxFlowM3s: 0.024, MaxPowerW: 11, StandbyW: 0.3}
}

// Validate checks the fan parameters.
func (f FanConfig) Validate() error {
	if f.MaxFlowM3s <= 0 {
		return fmt.Errorf("vent: fan MaxFlowM3s must be > 0")
	}
	if f.MaxPowerW < 0 || f.StandbyW < 0 {
		return fmt.Errorf("vent: fan powers must be >= 0")
	}
	return nil
}

// Airbox is one dehumidification/ventilation unit: DC fans inhale outdoor
// air through a filter and a cold-water copper coil; a damper prevents
// leakage when idle.
type Airbox struct {
	coil CoilConfig
	fan  FanConfig
	pump *hydraulic.Pump
	dew  *pid.Controller

	fanFlow  float64 // commanded m³/s
	flapOpen bool
	curDew   float64 // lagged coil outlet dew point (NaN until first air)

	outlet     psychro.State
	condensate float64 // kg/s removed from the processed air
	coilLoadW  float64
}

// NewAirbox assembles an airbox.
func NewAirbox(coil CoilConfig, fan FanConfig, pump *hydraulic.Pump, dewPID pid.Config) (*Airbox, error) {
	if err := coil.Validate(); err != nil {
		return nil, err
	}
	if err := fan.Validate(); err != nil {
		return nil, err
	}
	if pump == nil {
		return nil, fmt.Errorf("vent: airbox needs a coil pump")
	}
	if err := pump.Validate(); err != nil {
		return nil, err
	}
	ctrl, err := pid.New(dewPID)
	if err != nil {
		return nil, err
	}
	return &Airbox{coil: coil, fan: fan, pump: pump, dew: ctrl, curDew: math.NaN()}, nil
}

// SetDewTarget updates the outlet dew-point target T_a,t_dew.
func (b *Airbox) SetDewTarget(t float64) { b.dew.SetSetpoint(t) }

// SetFanFlow commands the ventilation volume flow (clamped to the fan
// capacity). The CO₂flap opens whenever the fans run.
func (b *Airbox) SetFanFlow(m3s float64) {
	if m3s < 0 {
		m3s = 0
	}
	if m3s > b.fan.MaxFlowM3s {
		m3s = b.fan.MaxFlowM3s
	}
	b.fanFlow = m3s
	b.flapOpen = m3s > 0
}

// FanFlow returns the commanded ventilation flow in m³/s.
func (b *Airbox) FanFlow() float64 { return b.fanFlow }

// FlapOpen reports whether the CO₂flap is open.
func (b *Airbox) FlapOpen() bool { return b.flapOpen }

// MaxFanFlow returns the fan capacity in m³/s.
func (b *Airbox) MaxFanFlow() float64 { return b.fan.MaxFlowM3s }

// Outlet returns the most recent outlet air state.
func (b *Airbox) Outlet() psychro.State { return b.outlet }

// CondensateKgS returns the moisture extraction rate of the last step.
func (b *Airbox) CondensateKgS() float64 { return b.condensate }

// CoilLoadW returns the thermal load placed on the cold-water loop by the
// last step.
func (b *Airbox) CoilLoadW() float64 { return b.coilLoadW }

// PowerW returns the electrical draw of fans and coil pump.
func (b *Airbox) PowerW() float64 {
	frac := 0.0
	if b.fan.MaxFlowM3s > 0 {
		frac = b.fanFlow / b.fan.MaxFlowM3s
	}
	return b.fan.StandbyW + b.fan.MaxPowerW*frac*frac*frac + b.pump.PowerW()
}

// ParkPump stops the coil pump without disturbing the PID state; used
// while the fans are off.
func (b *Airbox) ParkPump() { b.pump.SetFlow(0) }

// SetDewIntegratorFrozen freezes or thaws the outlet-dew PID integrator
// — the degradation watchdog's response to this box's SHT75 mote going
// stale (see pid.Controller.SetIntegratorFrozen).
func (b *Airbox) SetDewIntegratorFrozen(on bool) { b.dew.SetIntegratorFrozen(on) }

// UpdateDewControl advances the outlet-dew PID with the measured outlet
// dew point and commands the coil pump accordingly.
func (b *Airbox) UpdateDewControl(measuredDew, dt float64) {
	flow := b.dew.Update(measuredDew, dt)
	if flow > b.coil.MaxFlowLpm {
		flow = b.coil.MaxFlowLpm
	}
	b.pump.SetFlow(flow)
}

// Process pushes outdoor air through the box for dt seconds: the coil
// drops the dew point linearly with water flow (clamped at the water
// temperature plus approach), the separated vapour condenses out, and the
// coil load is returned to the cold tank.
func (b *Airbox) Process(outdoor psychro.State, tank *hydraulic.Tank, dt float64) {
	if b.fanFlow <= 0 {
		// Damper closed: no air moves, no coil load.
		b.outlet = outdoor
		b.condensate = 0
		b.coilLoadW = 0
		return
	}
	coilFlow := b.pump.FlowLpm()
	inDew := outdoor.DewPoint()
	ssDew := inDew - b.coil.DewDropPerLpm*coilFlow
	if floor := tank.Temp() + b.coil.ApproachK; ssDew < floor {
		ssDew = floor
	}
	if ssDew > inDew {
		ssDew = inDew
	}
	// First-order coil lag toward the steady-state dew point. A coil that
	// has never seen air starts at the inlet condition.
	if math.IsNaN(b.curDew) {
		b.curDew = inDew
	}
	if b.coil.TauS <= 0 {
		b.curDew = ssDew
	} else {
		frac := dt / b.coil.TauS
		if frac > 1 {
			frac = 1
		}
		b.curDew += (ssDew - b.curDew) * frac
	}
	outDew := b.curDew
	// Air leaves the coil saturated at outDew, then reheats slightly; it
	// can never leave warmer than it arrived.
	outT := math.Min(outDew+b.coil.ReheatK, outdoor.T)
	b.outlet = psychro.NewStateDewPoint(outT, outDew, outdoor.P)

	mdotAir := b.fanFlow * psychro.DryAirDensity(outdoor.T, outdoor.P)
	b.condensate = mdotAir * (outdoor.W - b.outlet.W)
	if b.condensate < 0 {
		b.condensate = 0
	}
	b.coilLoadW = mdotAir * (outdoor.Enthalpy() - b.outlet.Enthalpy()) * 1000
	if b.coilLoadW < 0 {
		b.coilLoadW = 0
	}
	if coilFlow > 0 && b.coilLoadW > 0 {
		tRet := tank.Temp() + b.coilLoadW/(hydraulic.LpmToKgs(coilFlow)*hydraulic.CwWater)
		tank.ReturnWater(coilFlow, tRet)
	}
}
