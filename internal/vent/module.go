package vent

import (
	"fmt"
	"math"

	"bubblezero/internal/hydraulic"
	"bubblezero/internal/pid"
	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
)

// Config parameterises the ventilation module.
type Config struct {
	// TPref and RHPref are the occupant's preferred temperature (°C) and
	// relative humidity (%); together they define T_p_dew.
	TPref, RHPref float64
	// CO2TargetPPM is the indoor CO₂ target.
	CO2TargetPPM float64
	// HorizonS is the paper's T: the time budget for neutralising the
	// humidity/CO₂ error ("To promptly approach to the control targets in
	// T seconds (e.g., 60 seconds)").
	HorizonS float64
	// PullDownOffsetK is the dew-target depression applied while the room
	// is wetter than the target ("T_a,t_dew is set to T_r,t_dew − 2 °C to
	// quickly pull down the room air dew point").
	PullDownOffsetK float64
	// DewDeadbandK is the hysteresis above the room dew target before the
	// fans engage for dehumidification. Without it, sensor noise at the
	// threshold keeps the boxes cycling at high load and the equilibrium
	// ventilation power balloons far past the paper's ≈213 W.
	DewDeadbandK float64
	// ZoneVolumeM3 is the subspace volume used in the F_humd/F_CO2
	// sizing.
	ZoneVolumeM3 float64
	// Coil and Fan describe each airbox's hardware.
	Coil CoilConfig
	Fan  FanConfig
	// DewPID is the outlet-dew controller configuration.
	DewPID pid.Config
}

// DefaultConfig returns the paper's operating configuration: 25 °C / 18 °C
// dew target (≈65 % RH at 25 °C) with a 60 s control horizon.
func DefaultConfig() Config {
	return Config{
		TPref:           25,
		RHPref:          65.3, // RH at 25 °C whose dew point is 18 °C
		CO2TargetPPM:    800,
		HorizonS:        60,
		PullDownOffsetK: 2,
		DewDeadbandK:    0.35,
		ZoneVolumeM3:    15,
		Coil:            DefaultCoil(),
		Fan:             DefaultFan(),
		DewPID: pid.Config{
			Kp:      0.4,
			Ki:      0.02,
			OutMin:  0,
			OutMax:  2,
			Reverse: true, // measured dew above target → more coil flow
		},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HorizonS <= 0 {
		return fmt.Errorf("vent: HorizonS must be > 0, got %v", c.HorizonS)
	}
	if c.ZoneVolumeM3 <= 0 {
		return fmt.Errorf("vent: ZoneVolumeM3 must be > 0, got %v", c.ZoneVolumeM3)
	}
	if c.PullDownOffsetK < 0 {
		return fmt.Errorf("vent: PullDownOffsetK must be >= 0, got %v", c.PullDownOffsetK)
	}
	if c.DewDeadbandK < 0 {
		return fmt.Errorf("vent: DewDeadbandK must be >= 0, got %v", c.DewDeadbandK)
	}
	if c.CO2TargetPPM <= 0 {
		return fmt.Errorf("vent: CO2TargetPPM must be > 0, got %v", c.CO2TargetPPM)
	}
	if err := c.Coil.Validate(); err != nil {
		return err
	}
	if err := c.Fan.Validate(); err != nil {
		return err
	}
	return c.DewPID.Validate()
}

// zoneObs is the per-subspace observation state assembled from broadcast
// sensor messages.
type zoneObs struct {
	temp, rh, co2 float64

	// wKeyTemp/wKeyRH/w memoise HumidityRatio(temp, rh): observations only
	// change when a broadcast arrives, while the control law reruns every
	// tick. The memo returns the exact float the recomputation would (same
	// pure function, same arguments), so the control output is
	// bit-identical; NaN observations never match the key and fall through
	// to the (NaN-propagating) computation.
	wKeyTemp, wKeyRH, w float64
}

// humidityRatio returns HumidityRatio(temp, rh, AtmPressure), cached
// against the current observation pair.
func (z *zoneObs) humidityRatio() float64 {
	//bzlint:allow floateq exact-key memo; NaN keys never match and force recomputation
	if z.temp == z.wKeyTemp && z.rh == z.wKeyRH {
		return z.w
	}
	z.wKeyTemp, z.wKeyRH = z.temp, z.rh
	z.w = psychro.HumidityRatio(z.temp, z.rh, psychro.AtmPressure)
	return z.w
}

// memo2 caches one float64 result keyed on two exact float64 arguments.
// The zero value is primed with NaN keys, which can never match, so the
// first lookup always computes.
type memo2 struct {
	a, b, out float64
	valid     bool
}

func (m *memo2) get(a, b float64, f func(a, b float64) float64) float64 {
	//bzlint:allow floateq exact-key memo; NaN keys never match and force recomputation
	if m.valid && a == m.a && b == m.b {
		return m.out
	}
	m.a, m.b = a, b
	m.out = f(a, b)
	m.valid = true
	return m.out
}

// Module is the distributed ventilation controller (Control-V-1/2/3) plus
// its four airboxes. Observations arrive via Observe*; Step runs the
// §III-C control law and processes the boxes.
type Module struct {
	cfg   Config
	tank  *hydraulic.Tank
	boxes [NumBoxes]*Airbox

	outdoor func() psychro.State
	co2Out  float64 // outdoor CO₂ used as supply concentration

	zones     [NumBoxes]zoneObs
	tSupp     float64 // radiant supply temperature from Control-C-1
	airboxDew [NumBoxes]float64

	// boxUntrusted marks boxes whose outlet-dew mote has gone stale: the
	// coil PID then tracks the box's own model-predicted outlet dew
	// instead of the last (frozen) measurement.
	boxUntrusted [NumBoxes]bool

	taTarget float64

	// tpDew is the preferred dew point T_p_dew, fixed by the
	// configuration's TPref and RHPref.
	tpDew float64

	// Exact-argument memos for the psychrometric conversions the per-tick
	// control law repeats on slowly-changing inputs (see zoneObs).
	roomDewMemo memo2 // (avg temp, avg rh) -> room dew point
	sizingMemo  struct {
		target            float64
		wTarget, wTrigger float64
		valid             bool
	}
}

var _ sim.Component = (*Module)(nil)

// New builds the module. outdoor supplies the intake air state; co2Out is
// the supply-air CO₂ concentration (ppm).
func New(cfg Config, tank *hydraulic.Tank, outdoor func() psychro.State, co2Out float64) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tank == nil {
		return nil, fmt.Errorf("vent: tank must not be nil")
	}
	if outdoor == nil {
		return nil, fmt.Errorf("vent: outdoor must not be nil")
	}
	m := &Module{cfg: cfg, tank: tank, outdoor: outdoor, co2Out: co2Out, tSupp: math.NaN(),
		tpDew: psychro.DewPoint(cfg.TPref, cfg.RHPref)}
	for i := range m.boxes {
		pump := &hydraulic.Pump{MaxFlowLpm: cfg.Coil.MaxFlowLpm, MaxPowerW: 2, StandbyW: 0.1}
		box, err := NewAirbox(cfg.Coil, cfg.Fan, pump, cfg.DewPID)
		if err != nil {
			return nil, err
		}
		m.boxes[i] = box
		m.zones[i] = zoneObs{temp: math.NaN(), rh: math.NaN(), co2: math.NaN()}
		m.airboxDew[i] = math.NaN()
	}
	return m, nil
}

// Name implements sim.Component.
func (m *Module) Name() string { return "vent.module" }

// Box exposes one airbox for instrumentation.
func (m *Module) Box(i int) *Airbox {
	if i < 0 || i >= NumBoxes {
		return nil
	}
	return m.boxes[i]
}

// ObserveZoneTemp feeds a subspace temperature reading (°C).
func (m *Module) ObserveZoneTemp(zone int, t float64) {
	if zone >= 0 && zone < NumBoxes && !math.IsNaN(t) {
		m.zones[zone].temp = t
	}
}

// ObserveZoneRH feeds a subspace relative-humidity reading (%).
func (m *Module) ObserveZoneRH(zone int, rh float64) {
	if zone >= 0 && zone < NumBoxes && !math.IsNaN(rh) {
		m.zones[zone].rh = rh
	}
}

// ObserveZoneCO2 feeds a subspace CO₂ reading (ppm).
func (m *Module) ObserveZoneCO2(zone int, ppm float64) {
	if zone >= 0 && zone < NumBoxes && !math.IsNaN(ppm) {
		m.zones[zone].co2 = ppm
	}
}

// ObserveSupplyTemp feeds the radiant tank supply temperature T_supp from
// Control-C-1's broadcasts — the coupling that lets the ventilation module
// keep the room dew point below the radiant water temperature.
func (m *Module) ObserveSupplyTemp(t float64) {
	if !math.IsNaN(t) {
		m.tSupp = t
	}
}

// ObserveAirboxDew feeds an SHT75 outlet dew-point measurement for a box.
func (m *Module) ObserveAirboxDew(box int, dew float64) {
	if box >= 0 && box < NumBoxes && !math.IsNaN(dew) {
		m.airboxDew[box] = dew
	}
}

// SetBoxDewUntrusted marks (or clears) a box's outlet-dew measurement as
// untrusted. While set, the coil PID runs its integrator frozen against
// the model-predicted outlet dew point rather than chasing the frozen
// last measurement. Out-of-range boxes are ignored.
func (m *Module) SetBoxDewUntrusted(box int, on bool) {
	if box < 0 || box >= NumBoxes {
		return
	}
	m.boxUntrusted[box] = on
	m.boxes[box].SetDewIntegratorFrozen(on)
}

// DeratePumps limits every coil pump to frac of its commanded flow (1
// restores healthy pumps) — the fault layer's pump-degradation hook.
func (m *Module) DeratePumps(frac float64) {
	for _, b := range m.boxes {
		b.pump.SetDerate(frac)
	}
}

// TPDew returns the preferred dew point T_p_dew derived from the occupant
// preference.
func (m *Module) TPDew() float64 { return m.tpDew }

// TaTarget returns the current airbox outlet dew target T_a,t_dew.
func (m *Module) TaTarget() float64 { return m.taTarget }

// RoomDew returns the observed room dew point (from averaged zone
// temperature and humidity), or NaN before data arrives.
func (m *Module) RoomDew() float64 {
	var tSum, rhSum float64
	n := 0
	for _, z := range m.zones {
		if !math.IsNaN(z.temp) && !math.IsNaN(z.rh) {
			tSum += z.temp
			rhSum += z.rh
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return m.roomDewMemo.get(tSum/float64(n), rhSum/float64(n), psychro.DewPoint)
}

// CoilPumpPowerW returns only the coil pump draw — the paper's COP
// measurement boundary for the ventilation module covers the chiller and
// pumps ("we also install power meters at major energy consuming devices,
// including chillers and pumps"), not the small DC fans.
func (m *Module) CoilPumpPowerW() float64 {
	var sum float64
	for _, b := range m.boxes {
		sum += b.pump.PowerW()
	}
	return sum
}

// CoilLoadW returns the total thermal load the boxes placed on the cold
// loop in the last step — the paper's "absorbed heat from inhaled air".
func (m *Module) CoilLoadW() float64 {
	var sum float64
	for _, b := range m.boxes {
		sum += b.CoilLoadW()
	}
	return sum
}

// VentInputFor returns the thermal-model boundary condition produced by a
// box in the last step.
func (m *Module) VentInputFor(box int) (volFlow float64, supply psychro.State, supplyCO2 float64) {
	if box < 0 || box >= NumBoxes {
		return 0, psychro.State{}, 0
	}
	b := m.boxes[box]
	return b.FanFlow(), b.Outlet(), m.co2Out
}

// Step implements sim.Component: one pass of the §III-C control law.
//
//bzlint:hotpath
func (m *Module) Step(env *sim.Env) {
	dt := env.Dt()
	out := m.outdoor()

	// Room target dew point: T_r,t_dew = min{T_p_dew, T_supp}.
	trTarget := m.TPDew()
	if !math.IsNaN(m.tSupp) && m.tSupp < trTarget {
		trTarget = m.tSupp
	}

	// Airbox outlet target: depressed while pulling down, equal while
	// maintaining.
	roomDew := m.RoomDew()
	switch {
	case math.IsNaN(roomDew):
		m.taTarget = trTarget
	case trTarget < roomDew:
		m.taTarget = trTarget - m.cfg.PullDownOffsetK
	default:
		m.taTarget = trTarget
	}

	for i, b := range m.boxes {
		b.SetDewTarget(m.taTarget)

		// Fan sizing: F_vent = max{F_humd, F_CO2}. trTarget is the sizing
		// dew target (the room target, not the depressed box target).
		z := &m.zones[i]
		fHumd := m.humidityFlow(z, b, trTarget)
		fCO2 := m.co2Flow(z)
		b.SetFanFlow(math.Max(fHumd, fCO2))

		// Coil control runs only while air moves; an idle box parks its
		// pump (no point chilling a coil nothing flows over).
		if b.FanFlow() > 0 {
			measured := m.airboxDew[i]
			if math.IsNaN(measured) || m.boxUntrusted[i] {
				measured = b.Outlet().DewPoint()
			}
			b.UpdateDewControl(measured, dt)
		} else {
			b.ParkPump()
		}

		b.Process(out, m.tank, dt)
	}
}

// humidityFlow sizes the ventilation flow (m³/s) needed to pull the zone
// humidity ratio to the target within the horizon, given the current box
// outlet dryness. target is the room dew target (min of preference and
// T_supp) computed once per Step.
func (m *Module) humidityFlow(z *zoneObs, b *Airbox, target float64) float64 {
	if math.IsNaN(z.temp) || math.IsNaN(z.rh) {
		return 0
	}
	wZone := z.humidityRatio()
	// wTarget and wTrigger depend only on the sizing target (the deadband
	// is fixed), which changes only when a T_supp broadcast moves it; the
	// memo holds both conversions. A NaN target never matches and
	// recomputes (propagating NaN exactly as the direct calls would).
	//bzlint:allow floateq exact-key memo on the sizing target; NaN never matches
	if !(m.sizingMemo.valid && target == m.sizingMemo.target) {
		m.sizingMemo.target = target
		m.sizingMemo.wTarget = psychro.HumidityRatioFromDewPoint(target, psychro.AtmPressure)
		m.sizingMemo.wTrigger = psychro.HumidityRatioFromDewPoint(target+m.cfg.DewDeadbandK, psychro.AtmPressure)
		m.sizingMemo.valid = true
	}
	wTarget := m.sizingMemo.wTarget
	// Hysteresis: the zone must exceed the target dew point by the
	// deadband before dehumidification kicks in.
	if wZone <= m.sizingMemo.wTrigger {
		return 0
	}
	wSupply := b.Outlet().W
	denom := wZone - wSupply
	if denom <= 1e-6 {
		// Supply no drier than the room: full blast is the best the box
		// can do (the coil PID will deepen the dryness).
		return b.MaxFanFlow()
	}
	return m.cfg.ZoneVolumeM3 * (wZone - wTarget) / denom / m.cfg.HorizonS
}

// co2Flow sizes the ventilation flow (m³/s) needed to pull the zone CO₂
// concentration to the target within the horizon.
func (m *Module) co2Flow(z *zoneObs) float64 {
	if math.IsNaN(z.co2) || z.co2 <= m.cfg.CO2TargetPPM {
		return 0
	}
	denom := z.co2 - m.co2Out
	if denom <= 1 {
		return 0
	}
	return m.cfg.ZoneVolumeM3 * (z.co2 - m.cfg.CO2TargetPPM) / denom / m.cfg.HorizonS
}
