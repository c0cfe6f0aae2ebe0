// Package hydraulic models BubbleZERO's water circuits (§III-B, Figure 3):
// chilled-water tanks held at setpoint by a lift-dependent chiller, DC
// pumps driven by 0–5 V control signals, the supply/recycle mixing
// junction that Control-C-2 uses to raise the panel water temperature
// above the dew point, and the ceiling-panel heat exchanger with its
// surface-temperature estimate used for condensation safety.
package hydraulic

import (
	"fmt"
	"math"

	"bubblezero/internal/exergy"
)

// CwWater is the specific heat of water in J/(kg·K); the paper's constant
// c in P_remove = c·F·(T_retn − T_supp).
const CwWater = 4186.0

// LpmToKgs converts a water flow in litres/minute to kg/s.
func LpmToKgs(lpm float64) float64 { return lpm / 60.0 }

// HeatFlow returns the thermal power (W) carried by a water stream of
// flowLpm litres/minute heated from tSupp to tRet — exactly the paper's
// measurement P_remove = c·F·(T_retn − T_supp).
func HeatFlow(flowLpm, tSupp, tRet float64) float64 {
	return CwWater * LpmToKgs(flowLpm) * (tRet - tSupp)
}

// Pump is a DC circulation pump controlled by a 0–5 V signal
// (§III-B.2: "takes a voltage signal ranging from 0V to 5V as the input
// to control its speed"). Flow is linear in voltage; electrical draw
// follows an affinity-law cubic plus a standby floor.
type Pump struct {
	// MaxFlowLpm is the flow at 5 V in litres/minute.
	MaxFlowLpm float64
	// MaxPowerW is the electrical draw at 5 V.
	MaxPowerW float64
	// StandbyW is drawn whenever the pump is powered, even at 0 V.
	StandbyW float64

	voltage float64

	// derate scales the delivered flow during a pump-degradation fault
	// (worn impeller, partial clog), valid only while derated is set. The
	// electrical draw still follows the commanded voltage — a degraded
	// pump wastes energy.
	derate  float64
	derated bool
}

// Validate checks the pump parameters.
func (p *Pump) Validate() error {
	if p.MaxFlowLpm <= 0 {
		return fmt.Errorf("hydraulic: pump MaxFlowLpm must be > 0, got %v", p.MaxFlowLpm)
	}
	if p.MaxPowerW < 0 || p.StandbyW < 0 {
		return fmt.Errorf("hydraulic: pump powers must be >= 0")
	}
	return nil
}

// SetVoltage commands the pump; values are clamped to [0, 5].
func (p *Pump) SetVoltage(v float64) {
	if v < 0 {
		v = 0
	} else if v > 5 {
		v = 5
	}
	p.voltage = v
}

// SetFlow commands the pump by target flow (L/min), converting to the
// equivalent voltage. This mirrors Control-C-2's DAC lookup.
func (p *Pump) SetFlow(lpm float64) {
	p.SetVoltage(lpm / p.MaxFlowLpm * 5)
}

// SetDerate limits the delivered flow to frac of the commanded value
// (clamped to [0, 1]); 1 restores a healthy pump. Controllers are not
// told: they see the shortfall through the plant and compensate until
// they saturate, which is exactly the degradation the fault layer probes.
func (p *Pump) SetDerate(frac float64) {
	if frac >= 1 {
		// Healthy again: keep the fault-free FlowLpm path untouched.
		p.derate, p.derated = 0, false
		return
	}
	if frac < 0 {
		frac = 0
	}
	p.derate, p.derated = frac, true
}

// FlowLpm returns the delivered flow in litres/minute.
func (p *Pump) FlowLpm() float64 {
	f := p.voltage / 5 * p.MaxFlowLpm
	if p.derated {
		f *= p.derate
	}
	return f
}

// PowerW returns the current electrical draw.
func (p *Pump) PowerW() float64 {
	frac := p.voltage / 5
	return p.StandbyW + p.MaxPowerW*frac*frac*frac
}

// Tank is a chilled-water tank whose temperature is held at a setpoint by
// a chiller. Loops draw supply water at the tank temperature and return
// warm water, which raises the tank temperature; the chiller pulls it back
// down, consuming electrical power according to the lift between the tank
// setpoint and the outdoor rejection temperature.
type Tank struct {
	// VolumeL is the tank water volume in litres.
	VolumeL float64
	// Setpoint is the chilled-water setpoint in °C (18 for the radiant
	// tank, 8 for the ventilation tank).
	Setpoint float64
	// Chiller converts thermal load to electrical power.
	Chiller exergy.Chiller
	// CapacityW is the maximum chiller thermal power.
	CapacityW float64
	// LossUA models heat gain from the room to the tank in W/K.
	LossUA float64

	// tripped holds the chiller off during a trip fault: the tank keeps
	// absorbing loop returns and standing losses, so its temperature
	// free-rises until the trip clears.
	tripped bool

	temp     float64
	loadW    float64 // heat returned by loops this step
	thermalW float64 // chiller thermal power last step
	elecW    float64 // chiller electrical power last step
}

// NewTank returns a tank initialised at its setpoint.
func NewTank(volumeL, setpoint float64, chiller exergy.Chiller, capacityW float64) (*Tank, error) {
	if volumeL <= 0 {
		return nil, fmt.Errorf("hydraulic: tank volume must be > 0, got %v", volumeL)
	}
	if capacityW <= 0 {
		return nil, fmt.Errorf("hydraulic: tank chiller capacity must be > 0, got %v", capacityW)
	}
	if err := chiller.Validate(); err != nil {
		return nil, err
	}
	return &Tank{
		VolumeL:   volumeL,
		Setpoint:  setpoint,
		Chiller:   chiller,
		CapacityW: capacityW,
		LossUA:    2,
		temp:      setpoint,
	}, nil
}

// SetChillerTripped trips (on) or restores (off) the chiller. While
// tripped it moves no heat and draws no power; the tank warms under its
// load and recovers under the proportional band after restoration.
func (t *Tank) SetChillerTripped(on bool) { t.tripped = on }

// Temp returns the current tank water temperature (°C) — the paper's
// T_supp for loops drawing from this tank.
func (t *Tank) Temp() float64 { return t.temp }

// ReturnWater reports flowLpm of water coming back into the tank at tRet
// °C during the current step. Call once per loop per step, before Step.
func (t *Tank) ReturnWater(flowLpm, tRet float64) {
	t.loadW += HeatFlow(flowLpm, t.temp, tRet)
}

// Step advances the tank by dt seconds with ambient temperatures for
// standing losses (room side) and heat rejection (outdoor side).
func (t *Tank) Step(dt, tRoom, tOutdoor float64) {
	mass := t.VolumeL // 1 kg/L
	gain := t.loadW + t.LossUA*(tRoom-t.temp)
	t.loadW = 0

	// Chiller: proportional band of 0.5 K around the setpoint, capped at
	// capacity. This keeps the tank within a fraction of a degree of the
	// setpoint under any credible load without hysteretic chatter.
	excess := t.temp - t.Setpoint
	demand := gain + excess/0.5*t.CapacityW
	if demand < 0 {
		demand = 0
	} else if demand > t.CapacityW {
		demand = t.CapacityW
	}
	if t.tripped {
		demand = 0
	}
	t.thermalW = demand
	t.elecW = t.Chiller.Power(demand, t.Setpoint, tOutdoor)

	t.temp += (gain - demand) / (mass * CwWater) * dt
}

// ChillerElectricalW returns the chiller electrical draw from the last step.
func (t *Tank) ChillerElectricalW() float64 { return t.elecW }

// Panel is a ceiling radiant panel fed by mixed water: an
// effectiveness-NTU heat exchanger between the panel water stream and the
// room air above which it radiates/convects.
type Panel struct {
	// UAWater is the water-side conductance in W/K.
	UAWater float64
	// HAAir is the air-side film conductance (h·A) in W/K, used for the
	// surface-temperature estimate. It must exceed UAWater (the air film
	// is one of the series resistances inside the overall conductance).
	HAAir float64
}

// Validate checks panel parameters.
func (p Panel) Validate() error {
	if p.UAWater <= 0 || p.HAAir <= 0 {
		return fmt.Errorf("hydraulic: panel UAWater and HAAir must be > 0")
	}
	return nil
}

// PanelResult is the outcome of one panel heat-exchange evaluation.
type PanelResult struct {
	// QW is the heat absorbed from the room in W (positive when cooling).
	QW float64
	// TReturn is the water temperature leaving the panel (°C).
	TReturn float64
	// TSurface is the estimated panel surface temperature (°C) — the
	// value compared against the under-panel dew point for condensation.
	TSurface float64
}

// Exchange evaluates the panel for mixed water entering at tMix °C with
// flow flowLpm against room air at tAir °C. Zero flow yields zero duty
// with the surface relaxed to the air temperature.
func (p Panel) Exchange(flowLpm, tMix, tAir float64) PanelResult {
	if flowLpm <= 0 {
		return PanelResult{TReturn: tMix, TSurface: tAir}
	}
	mdotCp := LpmToKgs(flowLpm) * CwWater
	eps := 1 - math.Exp(-p.UAWater/mdotCp)
	return p.exchangeWith(mdotCp, eps, tMix, tAir)
}

// exchangeWith is Exchange past the flow-dependent effectiveness: mdotCp
// and eps must have been computed exactly as Exchange computes them (the
// mixing loop caches them against the flow so the per-tick path skips the
// exp while the flow holds).
func (p Panel) exchangeWith(mdotCp, eps, tMix, tAir float64) PanelResult {
	q := eps * mdotCp * (tAir - tMix)
	tRet := tMix + q/mdotCp
	// The surface sits below the room air by the air-side film drop:
	// q = HAAir · (tAir − tSurf). HAAir must exceed the overall UAWater
	// for the estimate to land between the water and the air.
	tSurf := tAir - q/p.HAAir
	return PanelResult{QW: q, TReturn: tRet, TSurface: tSurf}
}

// MixingLoop is one ceiling panel's hydraulic circuit (Figure 3): a supply
// pump draws cold water from the tank, a recycle pump redirects warm
// return water, and the two streams merge so that the mixed temperature
// T_mix can be held above the condensation threshold while the mixed flow
// F_mix sets the cooling capacity.
type MixingLoop struct {
	Supply  *Pump
	Recycle *Pump
	Panel   Panel

	tank *Tank
	tRet float64 // water temperature in the return pipe (state)

	fMix, tMix float64
	last       PanelResult

	// surf is the lagged panel surface temperature: the metal panel has
	// thermal mass, so its surface relaxes toward the instantaneous
	// heat-exchange solution with time constant surfTauS rather than
	// jumping. NaN until the first step.
	surf     float64
	surfTauS float64

	// epsFlow/epsUA key the cached mdotCp and effectiveness: both depend
	// only on the mixed flow and the panel conductance, and the PID holds
	// the flow constant for long stretches (saturation, steady state), so
	// the per-tick exp disappears while the key matches. A miss recomputes
	// with Exchange's exact arithmetic, so results are bit-identical.
	// epsFlow starts NaN and never matches until the first step.
	epsFlow, epsUA float64
	mdotCp, eps    float64
}

// defaultSurfTauS is the panel-metal surface time constant in seconds.
const defaultSurfTauS = 60

// NewMixingLoop assembles a loop over the given tank.
func NewMixingLoop(tank *Tank, supply, recycle *Pump, panel Panel) (*MixingLoop, error) {
	if tank == nil {
		return nil, fmt.Errorf("hydraulic: mixing loop requires a tank")
	}
	if err := supply.Validate(); err != nil {
		return nil, err
	}
	if err := recycle.Validate(); err != nil {
		return nil, err
	}
	if err := panel.Validate(); err != nil {
		return nil, err
	}
	return &MixingLoop{
		Supply:   supply,
		Recycle:  recycle,
		Panel:    panel,
		tank:     tank,
		tRet:     tank.Temp(),
		surf:     math.NaN(),
		surfTauS: defaultSurfTauS,
		epsFlow:  math.NaN(),
	}, nil
}

// Step advances the loop by dt seconds: computes the mixture, runs the
// panel exchange against room air at tAir, applies the surface thermal
// lag, and returns the supply-side water to the tank.
func (l *MixingLoop) Step(tAir, dt float64) {
	fSupp := l.Supply.FlowLpm()
	fRcyc := l.Recycle.FlowLpm()
	l.fMix = fSupp + fRcyc
	tSupp := l.tank.Temp()
	if l.fMix <= 0 {
		l.tMix = tSupp
		l.last = l.Panel.Exchange(0, tSupp, tAir)
	} else {
		l.tMix = (fSupp*tSupp + fRcyc*l.tRet) / l.fMix
		//bzlint:allow floateq exact-key memo for the effectiveness term; flows settle onto float fixed points
		if l.fMix != l.epsFlow || l.Panel.UAWater != l.epsUA {
			l.epsFlow, l.epsUA = l.fMix, l.Panel.UAWater
			l.mdotCp = LpmToKgs(l.fMix) * CwWater
			l.eps = 1 - math.Exp(-l.Panel.UAWater/l.mdotCp)
		}
		l.last = l.Panel.exchangeWith(l.mdotCp, l.eps, l.tMix, tAir)
		l.tRet = l.last.TReturn
		// The supply fraction of the return stream flows back to the tank.
		if fSupp > 0 {
			l.tank.ReturnWater(fSupp, l.tRet)
		}
	}

	// Surface thermal lag: the metal panel starts at room temperature and
	// relaxes toward the instantaneous exchange solution.
	raw := l.last.TSurface
	if math.IsNaN(l.surf) {
		l.surf = tAir
	}
	if l.surfTauS > 0 && dt > 0 {
		frac := dt / l.surfTauS
		if frac > 1 {
			frac = 1
		}
		l.surf += (raw - l.surf) * frac
	} else {
		l.surf = raw
	}
	l.last.TSurface = l.surf
}

// FMix returns the mixed flow (L/min) — the paper's F_mix.
func (l *MixingLoop) FMix() float64 { return l.fMix }

// Result returns the last panel exchange outcome.
func (l *MixingLoop) Result() PanelResult { return l.last }

// PumpPowerW returns the combined electrical draw of both pumps.
func (l *MixingLoop) PumpPowerW() float64 {
	return l.Supply.PowerW() + l.Recycle.PowerW()
}

// CommandFlows translates a (T_mix target, F_mix target) pair into supply
// and recycle pump flows, implementing the mixing arithmetic of §III-B.1:
// the supply fraction is chosen so the mixture of tank water at tSupp and
// return water at tRet hits tMixTarget. When the return pipe is colder
// than the target (startup) the loop runs supply-only.
func (l *MixingLoop) CommandFlows(tMixTarget, fMixTarget float64) {
	tSupp := l.tank.Temp()
	if fMixTarget <= 0 {
		l.Supply.SetFlow(0)
		l.Recycle.SetFlow(0)
		return
	}
	denom := l.tRet - tSupp
	var fSupp float64
	switch {
	case tMixTarget <= tSupp:
		// Target at or below the tank temperature: pure supply is the
		// coldest achievable mixture.
		fSupp = fMixTarget
	case tMixTarget >= l.tRet:
		// Cannot mix hotter than the return stream: full recirculation
		// lets the panel warm the loop water toward the target before any
		// cold supply is admitted (condensation-safe startup).
		fSupp = 0
	case denom <= 1e-9:
		fSupp = fMixTarget
	default:
		fSupp = fMixTarget * (l.tRet - tMixTarget) / denom
	}
	if fSupp > fMixTarget {
		fSupp = fMixTarget
	}
	l.Supply.SetFlow(fSupp)
	l.Recycle.SetFlow(fMixTarget - fSupp)
}
