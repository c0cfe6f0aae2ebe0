package thermal

import (
	"fmt"
	"time"

	"bubblezero/internal/psychro"
	"bubblezero/internal/sim"
)

const cpAir = 1006.0 // J/(kg·K)

// ZoneState is the prognostic state of one subspace.
type ZoneState struct {
	// T is the zone dry-bulb temperature in °C.
	T float64
	// W is the zone humidity ratio in kg/kg.
	W float64
	// CO2PPM is the zone CO₂ concentration in ppm.
	CO2PPM float64
}

// Air returns the zone air as a psychrometric state at sea level.
func (z ZoneState) Air() psychro.State {
	return psychro.State{T: z.T, W: z.W, P: psychro.AtmPressure}
}

// DewPoint returns the zone dew-point temperature in °C.
func (z ZoneState) DewPoint() float64 { return z.Air().DewPoint() }

// RH returns the zone relative humidity in percent.
func (z ZoneState) RH() float64 { return z.Air().RH() }

// VentInput is the per-zone ventilation boundary condition set by the
// distributed ventilation module each step: the airbox supplies VolFlow of
// air in the Supply state while the CO₂flap exhausts the same volume of
// zone air.
type VentInput struct {
	// VolFlow is the supply volume flow in m³/s.
	VolFlow float64
	// Supply is the state of the air leaving the airbox.
	Supply psychro.State
	// SupplyCO2PPM is the CO₂ concentration of the supply air.
	SupplyCO2PPM float64
}

// Climate is a precomputed outdoor boundary condition: the raw state plus
// the derived psychrometric terms (dew point, density) the kernel and its
// consumers need. Computing a Climate costs a Magnus log and a density
// divide; installing one is pure assignment and a handful of multiplies.
// A fleet stepping thousands of buildings under one sky computes the
// Climate once per weather update and installs it everywhere
// (fleet.Apply(Event{Kind: EventClimate})) instead of paying the
// transcendentals per building per epoch.
type Climate struct {
	// Out is the outdoor moist-air state.
	Out psychro.State
	// CO2PPM is the outdoor CO₂ concentration.
	CO2PPM float64
	// Dew is Out.DewPoint(), precomputed.
	Dew float64
	// RhoOut is the outdoor dry-air density (kg/m³), precomputed.
	RhoOut float64
}

// NewClimate precomputes the derived terms for an outdoor boundary. It is
// the single definition of those terms: Room construction and SetOutdoor
// both route through it, so a fleet-shared Climate is bit-identical to a
// per-building recomputation.
func NewClimate(out psychro.State, co2ppm float64) Climate {
	return Climate{
		Out:    out,
		CO2PPM: co2ppm,
		Dew:    out.DewPoint(),
		RhoOut: psychro.DryAirDensity(out.T, out.P),
	}
}

// derivedState caches the psychrometric quantities that consumers of the
// room (the control glue, the sensor read callbacks, the trace recorder)
// derive from the prognostic zone state. The zone state only changes
// inside StepBatch, so each quantity is computed at most once per tick —
// with the same functions and the same argument values a fresh computation
// would use, keeping every cached read bit-identical.
//
// The averages are plain sums and stay eager; the dew-point and
// relative-humidity conversions cost an exp/log each and are computed
// lazily on first access after a step, because most ticks nobody reads
// them: the glue only needs a zone dew point when condensation is
// plausible, and the sensor callbacks only run on their sampling ticks.
type derivedState struct {
	zoneDew [NumZones]float64 // per-zone dew point, °C
	zoneRH  [NumZones]float64 // per-zone relative humidity, %

	avgT   float64 // room-average dry bulb, °C
	avgW   float64 // room-average humidity ratio, kg/kg
	avgDew float64 // dew point of the average state, °C
	avgCO2 float64 // room-average CO₂, ppm

	dewValid    [NumZones]bool
	rhValid     [NumZones]bool
	avgDewValid bool
}

// zoneInputs holds the per-step actuator and load inputs, also laid out
// as structure-of-arrays, with the setter-side precomputation the kernel
// consumes directly: SetVent resolves the supply air density (memoized on
// the exact supply state) into mass-flow coefficients, and SetOccupants
// folds the per-person loads into per-zone totals, so the per-tick pass
// is pure multiply-adds.
type zoneInputs struct {
	ventVol    [NumZones]float64 // supply volume flow, m³/s
	ventMdot   [NumZones]float64 // supply dry-air mass flow, kg/s
	ventMdotCp [NumZones]float64 // ventMdot · cpAir, W/K
	ventT      [NumZones]float64 // supply dry bulb, °C
	ventW      [NumZones]float64 // supply humidity ratio, kg/kg
	ventCO2    [NumZones]float64 // supply CO₂, ppm

	panelExtract [NumZones]float64 // W removed by radiant panels
	condensation [NumZones]float64 // kg/s moisture removed on cold surfaces

	occupants [NumZones]int
	occQ      [NumZones]float64 // occupant sensible heat, W
	occW      [NumZones]float64 // occupant moisture, kg/s
	occC      [NumZones]float64 // occupant CO₂, ppm·m³/s

	// ventRho memoizes the supply-air density per zone, keyed on the
	// exact supply (T, P). The airboxes settle onto float fixed points at
	// steady state, so after the pull-down transient the key matches tick
	// after tick; on a miss the value is recomputed with the same pure
	// function and arguments, so hit/miss history cannot change results.
	ventRho [NumZones]struct{ t, p, rho float64 }
}

// kernelTerms holds the per-configuration constants of the batch kernel,
// folded once at construction. The integrator divides each zone's flow
// totals by heat/moisture capacities that are proportional to the zone
// air density ρ = P/(R·T_K); folding the constants turns those per-zone
// divides into q · T_K · kInvHeat multiplies.
type kernelTerms struct {
	izf       float64 // inter-zone mixing flow, m³/s
	kInvHeat  float64 // RDryAir / (AtmPressure · ZoneVolume · cpAir · ThermalCapMult)
	kInvMoist float64 // RDryAir / (AtmPressure · ZoneVolume · MoistureCapMult)
	invVol    float64 // 1 / ZoneVolume

	// air carries the hoisted psychrometric terms (density numerator) the
	// kernel evaluates per zone; pinned against the scalar reference by
	// the internal/psychro property tests.
	air psychro.Terms
}

func newKernelTerms(cfg Config) kernelTerms {
	return kernelTerms{
		izf:       cfg.InterZoneFlow,
		kInvHeat:  psychro.RDryAir / (psychro.AtmPressure * cfg.ZoneVolume * cpAir * cfg.ThermalCapMult),
		kInvMoist: psychro.RDryAir / (psychro.AtmPressure * cfg.ZoneVolume * cfg.MoistureCapMult),
		invVol:    1 / cfg.ZoneVolume,
		air:       psychro.NewTerms(psychro.AtmPressure),
	}
}

// boundaryTerms are the outdoor-exchange coefficients, recomputed only
// when the climate changes (SetClimate): every outdoor exchange — envelope
// conduction, infiltration, and the door/window leaks — is proportional to
// (outdoor − zone), so the envelope and infiltration coefficients collapse
// into one fused multiply per balance per zone.
type boundaryTerms struct {
	outT, outW, outCO2 float64

	envInfQ float64 // envelope UA share + infiltration heat coefficient, W/K
	infW    float64 // infiltration moisture coefficient, kg/s per (kg/kg)
	infC    float64 // infiltration CO₂ coefficient, m³/s

	doorQ, doorW, doorC float64 // door leak coefficients (subspace-1)
	winQ, winW, winC    float64 // window leak coefficients (subspace-3)
}

// Room is the four-zone laboratory model. It implements sim.Component;
// actuator inputs (ventilation, panel extraction, condensation) are set by
// upstream components each tick and consumed during StepBatch.
//
// The room owns its state inline, as structure-of-arrays: zone i's
// dry-bulb temperature is t[i], its humidity ratio w[i], its CO₂ co2[i],
// next to the folded kernel, boundary, and input terms.
type Room struct {
	cfg Config

	t, w, co2 [NumZones]float64
	kern      kernelTerms
	bnd       boundaryTerms
	in        zoneInputs

	der  derivedState
	clim Climate

	doorRemaining   float64 // seconds the door stays open
	windowRemaining float64

	doorOpenings   int
	windowOpenings int
}

var _ sim.Component = (*Room)(nil)

// NewRoom builds a room whose zones all start in the given initial state
// with the given CO₂ concentration.
func NewRoom(cfg Config, initial psychro.State, initialCO2 float64) (*Room, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Room{cfg: cfg, kern: newKernelTerms(cfg)}
	for i := 0; i < NumZones; i++ {
		r.t[i] = initial.T
		r.w[i] = initial.W
		r.co2[i] = initialCO2
	}
	r.SetClimate(NewClimate(cfg.Outdoor, cfg.OutdoorCO2PPM))
	r.recomputeDerived()
	return r, nil
}

// recomputeDerived refreshes the eager averages and invalidates the lazy
// psychrometric conversions. Called whenever the zone state changes
// (construction and the end of every StepBatch).
func (r *Room) recomputeDerived() {
	var sumT, sumW, sumCO2 float64
	for i := 0; i < NumZones; i++ {
		sumT += r.t[i]
		sumW += r.w[i]
		sumCO2 += r.co2[i]
	}
	r.der.avgT = sumT / NumZones
	r.der.avgW = sumW / NumZones
	r.der.avgCO2 = sumCO2 / NumZones
	r.der.dewValid = [NumZones]bool{}
	r.der.rhValid = [NumZones]bool{}
	r.der.avgDewValid = false
}

// NewRoomAtOutdoor builds a room initially in equilibrium with the
// configured outdoor condition — the paper's experiment starting point
// ("Initially, the indoor condition is similar as the outdoor").
func NewRoomAtOutdoor(cfg Config) (*Room, error) {
	return NewRoom(cfg, cfg.Outdoor, cfg.OutdoorCO2PPM)
}

// Name implements sim.Component.
func (r *Room) Name() string { return "thermal.room" }

// Config returns the room configuration.
func (r *Room) Config() Config { return r.cfg }

// Zone returns the state of the given subspace.
func (r *Room) Zone(id ZoneID) ZoneState {
	if !id.Valid() {
		return ZoneState{}
	}
	return ZoneState{T: r.t[id], W: r.w[id], CO2PPM: r.co2[id]}
}

// AverageT returns the room-average dry-bulb temperature (°C) — the
// quantity the paper computes "by averaging temperature readings from a
// set of sensors deployed in the room". Cached per tick.
func (r *Room) AverageT() float64 { return r.der.avgT }

// AverageW returns the room-average humidity ratio (kg/kg). Cached per
// tick.
func (r *Room) AverageW() float64 { return r.der.avgW }

// AverageDewPoint returns the dew point (°C) of the average room state.
// Computed at most once per tick, on first access.
func (r *Room) AverageDewPoint() float64 {
	if !r.der.avgDewValid {
		r.der.avgDew = psychro.DewPointFromHumidityRatio(r.der.avgW, psychro.AtmPressure)
		r.der.avgDewValid = true
	}
	return r.der.avgDew
}

// AverageCO2 returns the room-average CO₂ concentration (ppm). Cached per
// tick.
func (r *Room) AverageCO2() float64 { return r.der.avgCO2 }

// ZoneDewPoint returns the dew point (°C) of the given subspace — the
// cached equivalent of Zone(id).DewPoint(), computed at most once per
// tick, on first access.
func (r *Room) ZoneDewPoint(id ZoneID) float64 {
	if !id.Valid() {
		return 0
	}
	if !r.der.dewValid[id] {
		r.der.zoneDew[id] = r.Zone(id).DewPoint()
		r.der.dewValid[id] = true
	}
	return r.der.zoneDew[id]
}

// ZoneRH returns the relative humidity (%) of the given subspace — the
// cached equivalent of Zone(id).RH(), computed at most once per tick, on
// first access.
func (r *Room) ZoneRH(id ZoneID) float64 {
	if !id.Valid() {
		return 0
	}
	if !r.der.rhValid[id] {
		r.der.zoneRH[id] = r.Zone(id).RH()
		r.der.rhValid[id] = true
	}
	return r.der.zoneRH[id]
}

// Outdoor returns the current outdoor boundary condition.
func (r *Room) Outdoor() psychro.State { return r.clim.Out }

// OutdoorDewPoint returns the dew point (°C) of the outdoor boundary
// condition — the cached equivalent of Outdoor().DewPoint().
func (r *Room) OutdoorDewPoint() float64 { return r.clim.Dew }

// SetOutdoor updates the outdoor boundary condition mid-run.
//
//bzlint:mutsetter fleet.Apply
//bzlint:allow testonly fleet.TestFleetClimateEventMatchesPerBuilding applies its per-building reference through it
func (r *Room) SetOutdoor(s psychro.State) {
	r.SetClimate(NewClimate(s, r.cfg.OutdoorCO2PPM))
}

// SetClimate installs a precomputed outdoor boundary and refolds the
// outdoor-exchange coefficients. The heavy terms (dew point, density)
// live in the Climate itself, so installing a shared Climate across a
// fleet costs only multiplies per building.
//
//bzlint:mutsetter fleet.Apply
func (r *Room) SetClimate(c Climate) {
	r.clim = c
	// Keep the Config view coherent for callers that read it back.
	r.cfg.Outdoor = c.Out
	r.cfg.OutdoorCO2PPM = c.CO2PPM

	b := &r.bnd
	b.outT, b.outW, b.outCO2 = c.Out.T, c.Out.W, c.CO2PPM
	infVol := r.cfg.InfiltrationACH * r.cfg.ZoneVolume / 3600 // m³/s
	b.envInfQ = r.cfg.EnvelopeUA/NumZones + infVol*c.RhoOut*cpAir
	b.infW = infVol * c.RhoOut
	b.infC = infVol
	b.doorQ = r.cfg.DoorFlow * c.RhoOut * cpAir
	b.doorW = r.cfg.DoorFlow * c.RhoOut
	b.doorC = r.cfg.DoorFlow
	b.winQ = r.cfg.WindowFlow * c.RhoOut * cpAir
	b.winW = r.cfg.WindowFlow * c.RhoOut
	b.winC = r.cfg.WindowFlow
}

// SetVent installs the ventilation boundary condition for a zone. It stays
// in effect until overwritten. The supply-air density — the one
// psychrometric term in the ventilation exchange — is resolved here, not
// in the kernel, memoized on the exact supply (T, P) pair.
func (r *Room) SetVent(id ZoneID, in VentInput) {
	if !id.Valid() {
		return
	}
	r.in.ventVol[id] = in.VolFlow
	r.in.ventT[id] = in.Supply.T
	r.in.ventW[id] = in.Supply.W
	r.in.ventCO2[id] = in.SupplyCO2PPM
	if in.VolFlow <= 0 {
		r.in.ventMdot[id] = 0
		r.in.ventMdotCp[id] = 0
		return
	}
	m := &r.in.ventRho[id]
	//bzlint:allow floateq exact-key memo; airbox supply settles on a float fixed point at steady state, and a miss recomputes with the same pure function
	if m.t != in.Supply.T || m.p != in.Supply.P {
		m.t, m.p = in.Supply.T, in.Supply.P
		m.rho = psychro.DryAirDensity(in.Supply.T, in.Supply.P)
	}
	mdot := in.VolFlow * m.rho
	r.in.ventMdot[id] = mdot
	r.in.ventMdotCp[id] = mdot * cpAir
}

// SetVentBatch installs all four ventilation boundary conditions in one
// call — the batch form the control glue threads each tick.
func (r *Room) SetVentBatch(in *[NumZones]VentInput) {
	for i := 0; i < NumZones; i++ {
		r.SetVent(ZoneID(i), in[i])
	}
}

// SetPanelExtraction sets the radiant heat (W) currently being removed
// from a zone by the ceiling panel above it.
func (r *Room) SetPanelExtraction(id ZoneID, watts float64) {
	if id.Valid() {
		r.in.panelExtract[id] = watts
	}
}

// SetCondensation sets the rate (kg/s) at which moisture is condensing out
// of a zone onto cold surfaces.
func (r *Room) SetCondensation(id ZoneID, kgPerS float64) {
	if id.Valid() && kgPerS >= 0 {
		r.in.condensation[id] = kgPerS
	}
}

// SetOccupants sets the number of people in a zone. The per-person loads
// are folded into per-zone totals here, off the per-tick path.
//
//bzlint:mutsetter fleet.Apply
func (r *Room) SetOccupants(id ZoneID, n int) {
	if !id.Valid() || n < 0 {
		return
	}
	r.in.occupants[id] = n
	fn := float64(n)
	r.in.occQ[id] = fn * r.cfg.OccupantSensibleW
	r.in.occW[id] = fn * r.cfg.OccupantLatentKgS
	r.in.occC[id] = fn * r.cfg.OccupantCO2Ls / 1000 * 1e6 / 1 // L/s → m³/s → ppm·m³/s
}

// OpenDoor opens the door (subspace-1) for the given duration, exchanging
// outdoor air at the configured DoorFlow. Reopening while already open
// extends the interval.
//
//bzlint:mutsetter fleet.Apply
func (r *Room) OpenDoor(d time.Duration) {
	if s := d.Seconds(); s > r.doorRemaining {
		r.doorRemaining = s
	}
	r.doorOpenings++
}

// OpenWindow opens the window (subspace-3) for the given duration.
func (r *Room) OpenWindow(d time.Duration) {
	if s := d.Seconds(); s > r.windowRemaining {
		r.windowRemaining = s
	}
	r.windowOpenings++
}

// DoorOpen reports whether the door is currently open.
func (r *Room) DoorOpen() bool { return r.doorRemaining > 0 }

// Step implements sim.Component: one batch-kernel call integrates every
// zone of the building.
//
//bzlint:hotpath
func (r *Room) Step(env *sim.Env) { r.StepBatch(env.Dt()) }

// zoneFlows computes one zone's balance totals (heat W, moisture kg/s,
// CO₂ ppm·m³/s) from register-resident state. tn1/wn1/cn1 and tn2/wn2/cn2
// are the two grid neighbours (the 2×2 adjacency is compile-time fixed);
// qx/wx/cx are the zone's fused outdoor-exchange coefficients.
func zoneFlows(k *kernelTerms, b *boundaryTerms, in *zoneInputs, i int, ti, wi, ci, tn1, tn2, wn1, wn2, cn1, cn2, qx, wx, cx float64) (q, wf, cf float64) {
	mdot := k.izf * k.air.Density(ti) // inter-zone dry-air mass flow
	q = qx*(b.outT-ti) +
		mdot*cpAir*((tn1-ti)+(tn2-ti)) +
		in.ventMdotCp[i]*(in.ventT[i]-ti) +
		in.occQ[i] - in.panelExtract[i]
	wf = wx*(b.outW-wi) +
		mdot*((wn1-wi)+(wn2-wi)) +
		in.ventMdot[i]*(in.ventW[i]-wi) +
		in.occW[i] - in.condensation[i]
	cf = cx*(b.outCO2-ci) +
		k.izf*((cn1-ci)+(cn2-ci)) +
		in.ventVol[i]*(in.ventCO2[i]-ci) +
		in.occC[i]
	return q, wf, cf
}

// StepBatch is the batch kernel entry point: forward-Euler integration of
// all four zone balances over dt seconds in one fused structure-of-arrays
// pass. Per-config terms fold at construction, per-climate terms at
// SetClimate, per-tick terms before the pass; NumZones is a compile-time
// constant and the 2×2 adjacency is fixed, so the pass is fully unrolled —
// the twelve prognostic floats live in registers, the flow math performs
// no array indexing (and therefore no bounds checks), and each zone pays
// exactly one divide (the density reciprocal). The room-average sums fuse
// into the same pass instead of re-walking the state.
//
// Restructuring this arithmetic is licensed by the golden-epoch scheme:
// results are pinned to the paper's metrics within tolerance
// (internal/experiments golden-epoch tests) and to the retained scalar
// reference within 1e-9 (batch_test.go), not to bit-identity with the
// pre-batch kernel.
//
//bzlint:hotpath
func (r *Room) StepBatch(dt float64) {
	k := &r.kern
	b := &r.bnd

	// Fused outdoor-exchange coefficients: envelope + infiltration on
	// every zone, plus the door leak on subspace-1 and the window leak on
	// subspace-3 while open. All outdoor exchange is proportional to
	// (outdoor − zone), so each balance pays one coefficient multiply.
	qx0, wx0, cx0 := b.envInfQ, b.infW, b.infC
	qx2, wx2, cx2 := b.envInfQ, b.infW, b.infC
	if r.doorRemaining > 0 {
		qx0 += b.doorQ
		wx0 += b.doorW
		cx0 += b.doorC
	}
	if r.windowRemaining > 0 {
		qx2 += b.winQ
		wx2 += b.winW
		cx2 += b.winC
	}

	kHeatDt := k.kInvHeat * dt
	kMoistDt := k.kInvMoist * dt
	kCO2Dt := k.invVol * dt

	t0, t1, t2, t3 := r.t[0], r.t[1], r.t[2], r.t[3]
	w0, w1, w2, w3 := r.w[0], r.w[1], r.w[2], r.w[3]
	c0, c1, c2, c3 := r.co2[0], r.co2[1], r.co2[2], r.co2[3]

	// Zone neighbourhoods (see adjacency): 0↔{1,2}, 1↔{0,3}, 2↔{0,3},
	// 3↔{1,2}.
	in := &r.in
	q0, wf0, cf0 := zoneFlows(k, b, in, 0, t0, w0, c0, t1, t2, w1, w2, c1, c2, qx0, wx0, cx0)
	q1, wf1, cf1 := zoneFlows(k, b, in, 1, t1, w1, c1, t0, t3, w0, w3, c0, c3, b.envInfQ, b.infW, b.infC)
	q2, wf2, cf2 := zoneFlows(k, b, in, 2, t2, w2, c2, t0, t3, w0, w3, c0, c3, qx2, wx2, cx2)
	q3, wf3, cf3 := zoneFlows(k, b, in, 3, t3, w3, c3, t1, t2, w1, w2, c1, c2, b.envInfQ, b.infW, b.infC)

	// Integrate. q / heatCap = q · T_K · R/(P·V·cp·mult): the capacity
	// divides collapse into multiplies because ρ = P/(R·T_K). The moisture
	// balance uses the same pre-step T_K as the heat balance, so the Kelvin
	// temperatures are hoisted before the state advances.
	tk0, tk1, tk2, tk3 := t0+273.15, t1+273.15, t2+273.15, t3+273.15
	t0 += q0 * tk0 * kHeatDt
	t1 += q1 * tk1 * kHeatDt
	t2 += q2 * tk2 * kHeatDt
	t3 += q3 * tk3 * kHeatDt
	w0 += wf0 * tk0 * kMoistDt
	w1 += wf1 * tk1 * kMoistDt
	w2 += wf2 * tk2 * kMoistDt
	w3 += wf3 * tk3 * kMoistDt
	c0 += cf0 * kCO2Dt
	c1 += cf1 * kCO2Dt
	c2 += cf2 * kCO2Dt
	c3 += cf3 * kCO2Dt
	if w0 < 0 {
		w0 = 0
	}
	if w1 < 0 {
		w1 = 0
	}
	if w2 < 0 {
		w2 = 0
	}
	if w3 < 0 {
		w3 = 0
	}
	if c0 < 0 {
		c0 = 0
	}
	if c1 < 0 {
		c1 = 0
	}
	if c2 < 0 {
		c2 = 0
	}
	if c3 < 0 {
		c3 = 0
	}

	r.t = [NumZones]float64{t0, t1, t2, t3}
	r.w = [NumZones]float64{w0, w1, w2, w3}
	r.co2 = [NumZones]float64{c0, c1, c2, c3}

	// Derived averages, fused into the pass (left-associated in zone order,
	// the same bits recomputeDerived would produce); the expensive lazy
	// conversions are just invalidated.
	r.der.avgT = (t0 + t1 + t2 + t3) / NumZones
	r.der.avgW = (w0 + w1 + w2 + w3) / NumZones
	r.der.avgCO2 = (c0 + c1 + c2 + c3) / NumZones
	r.der.dewValid = [NumZones]bool{}
	r.der.rhValid = [NumZones]bool{}
	r.der.avgDewValid = false

	if r.doorRemaining > 0 {
		r.doorRemaining -= dt
		if r.doorRemaining < 0 {
			r.doorRemaining = 0
		}
	}
	if r.windowRemaining > 0 {
		r.windowRemaining -= dt
		if r.windowRemaining < 0 {
			r.windowRemaining = 0
		}
	}
}

// String summarises the room state for logs.
func (r *Room) String() string {
	return fmt.Sprintf("room avg %.2f°C dp %.2f°C co2 %.0fppm",
		r.AverageT(), r.AverageDewPoint(), r.AverageCO2())
}
