package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"bubblezero/internal/comfort"
	"bubblezero/internal/energy"
	"bubblezero/internal/fault"
	"bubblezero/internal/hydraulic"
	"bubblezero/internal/psychro"
	"bubblezero/internal/radiant"
	"bubblezero/internal/sim"
	"bubblezero/internal/thermal"
	"bubblezero/internal/trace"
	"bubblezero/internal/vent"
	"bubblezero/internal/wsn"
)

// System is the assembled BubbleZERO deployment.
type System struct {
	// cfg points at the Shared handle's single validated Config, aliased
	// by every System built from that handle. It is read-only.
	cfg *Config

	engine *sim.Engine
	room   *thermal.Room
	net    *wsn.Network

	radiantTank *hydraulic.Tank
	ventTank    *hydraulic.Tank
	radiantMod  *radiant.Module
	ventMod     *vent.Module

	devices      []*wsn.SensorDevice
	deviceByID   map[wsn.NodeID]*wsn.SensorDevice
	deviceReg    map[wsn.NodeID]*sim.Registration
	broadcasters []*wsn.PeriodicBroadcaster
	rec          *trace.Recorder
	ts           traceSeries

	plan  *fault.Plan
	watch *watchdog

	copRadiant energy.COP
	copVent    energy.COP

	condensationS float64 // cumulative seconds any panel surface was wet
	sinceTrace    float64

	// wSurfMemo caches HumidityRatioFromDewPoint(TSurface) per panel,
	// keyed on the exact surface temperature. The hydraulic loops settle
	// onto exact float fixed points at steady state, so after the pull-down
	// transient the key matches tick after tick; on any miss the value is
	// recomputed with the same pure function and arguments, keeping the
	// condensation check bit-identical. Keys start NaN, which never
	// matches.
	wSurfMemo [radiant.NumPanels]struct{ tSurf, w float64 }
}

// traceSeries holds the recorder handles for every series the glue traces,
// opened once at construction so the per-tick recording path performs no
// name formatting and no map lookups (and therefore no allocations).
type traceSeries struct {
	zoneTemp [thermal.NumZones]*trace.Series
	zoneDew  [thermal.NumZones]*trace.Series
	zoneCO2  [thermal.NumZones]*trace.Series

	outdoorTemp, outdoorDew *trace.Series
	avgTemp, avgDew         *trace.Series
	tankRadiant, tankVent   *trace.Series

	copTotal, copRadiant, copVent *trace.Series
}

// openTraceSeries opens every traced series on rec. The order matches the
// historical first-record order so Recorder.Names() stays stable.
func openTraceSeries(rec *trace.Recorder) traceSeries {
	var ts traceSeries
	for z := 0; z < thermal.NumZones; z++ {
		ts.zoneTemp[z] = rec.Series(fmt.Sprintf("temp.subsp%d", z+1))
		ts.zoneDew[z] = rec.Series(fmt.Sprintf("dew.subsp%d", z+1))
		ts.zoneCO2[z] = rec.Series(fmt.Sprintf("co2.subsp%d", z+1))
	}
	ts.outdoorTemp = rec.Series("temp.outdoor")
	ts.outdoorDew = rec.Series("dew.outdoor")
	ts.avgTemp = rec.Series("temp.avg")
	ts.avgDew = rec.Series("dew.avg")
	ts.tankRadiant = rec.Series("tank.radiant")
	ts.tankVent = rec.Series("tank.vent")
	ts.copTotal = rec.Series("cop.total")
	ts.copRadiant = rec.Series("cop.radiant")
	ts.copVent = rec.Series("cop.vent")
	return ts
}

// NewSystem validates cfg, then assembles and wires the full deployment.
// WithSeed/WithOutdoor override the seed and climate boundary for this
// instance, and WithFaultPlan schedules fault injections on the timeline
// and arms the degradation watchdog. Fleets assembling many Systems from
// one configuration should validate it once via NewShared and build
// through Shared.NewSystem instead.
func NewSystem(cfg Config, opts ...Option) (*System, error) {
	sh, err := NewShared(cfg)
	if err != nil {
		return nil, err
	}
	return sh.NewSystem(opts...)
}

// assemble wires a System over the validated configuration at cfg, which
// the System retains and treats as read-only (it may be a Shared handle's
// Config, aliased by thousands of sibling instances).
func assemble(cfg *Config, o *sysOpts) (*System, error) {
	if err := o.plan.Validate(); err != nil {
		return nil, err
	}
	clock, err := sim.NewClock(cfg.Start, cfg.Step)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if o.seed != nil {
		seed = *o.seed
	}
	engine := sim.NewEngine(clock, seed)

	thermalCfg := cfg.Thermal
	if o.outdoor != nil {
		thermalCfg.Outdoor = *o.outdoor
	}
	room, err := thermal.NewRoomAtOutdoor(thermalCfg)
	if err != nil {
		return nil, err
	}

	radiantTank, err := hydraulic.NewTank(cfg.RadiantTankL, cfg.RadiantSetpointC, cfg.Chiller, cfg.RadiantCapacityW)
	if err != nil {
		return nil, err
	}
	ventTank, err := hydraulic.NewTank(cfg.VentTankL, cfg.VentSetpointC, cfg.Chiller, cfg.VentCapacityW)
	if err != nil {
		return nil, err
	}
	// The laboratory's tanks are well insulated; standing losses are a
	// fraction of a watt per kelvin.
	radiantTank.LossUA = 0.5
	ventTank.LossUA = 0.5

	var loops [radiant.NumPanels]*hydraulic.MixingLoop
	panel := hydraulic.Panel{UAWater: cfg.PanelUAWater, HAAir: cfg.PanelHAAir}
	for p := range loops {
		supply := &hydraulic.Pump{MaxFlowLpm: cfg.PumpMaxFlowLpm, MaxPowerW: cfg.PumpMaxPowerW, StandbyW: 0.5}
		recycle := &hydraulic.Pump{MaxFlowLpm: cfg.PumpMaxFlowLpm, MaxPowerW: cfg.PumpMaxPowerW, StandbyW: 0.5}
		loop, err := hydraulic.NewMixingLoop(radiantTank, supply, recycle, panel)
		if err != nil {
			return nil, err
		}
		loops[p] = loop
	}

	panelAir := func(p int) float64 {
		zs := radiant.PanelZones(p)
		return (room.Zone(thermal.ZoneID(zs[0])).T + room.Zone(thermal.ZoneID(zs[1])).T) / 2
	}
	radiantMod, err := radiant.New(cfg.Radiant, radiantTank, loops, panelAir)
	if err != nil {
		return nil, err
	}

	ventMod, err := vent.New(cfg.Vent, ventTank, room.Outdoor, cfg.Thermal.OutdoorCO2PPM)
	if err != nil {
		return nil, err
	}

	net, err := wsn.NewNetwork(cfg.Net, engine.RNG().Stream("wsn"))
	if err != nil {
		return nil, err
	}

	s := &System{
		cfg:         cfg,
		engine:      engine,
		room:        room,
		net:         net,
		radiantTank: radiantTank,
		ventTank:    ventTank,
		radiantMod:  radiantMod,
		ventMod:     ventMod,
		rec:         trace.NewRecorder(),
		plan:        o.plan,
	}
	if !o.plan.Empty() {
		// Armed before buildTopology so the subscription callbacks see a
		// non-nil watchdog and report freshness to it.
		s.watch = newWatchdog(s)
	}
	for p := range s.wSurfMemo {
		s.wSurfMemo[p].tSurf = math.NaN()
	}
	if cfg.TracePeriod > 0 {
		s.ts = openTraceSeries(s.rec)
	}

	if err := s.buildTopology(); err != nil {
		return nil, err
	}
	s.deviceByID = make(map[wsn.NodeID]*wsn.SensorDevice, len(s.devices))
	for _, d := range s.devices {
		s.deviceByID[d.Node().ID()] = d
	}

	// Component order is the data-flow order: sensor devices sample and
	// enqueue, the network delivers to the control boards, the watchdog
	// (when armed) judges freshness, the modules actuate their
	// hydraulics, and the glue pushes the plant forward.
	//
	// Scheduling is cadence-aware: devices and broadcasters implement
	// sim.Cadenced, so Register places them on the engine's due-wheel and
	// they are stepped only on sampling/broadcast ticks; the network runs
	// on demand, woken exactly on ticks where some producer transmitted
	// (its Step was a no-op on the other ticks). The controllers, glue,
	// and room integrate over dt every tick and stay on the always path.
	//
	// Devices register faultable so a fault plan can suspend and resume
	// them (KindMoteOffline); their registrations are indexed by node id.
	s.deviceReg = make(map[wsn.NodeID]*sim.Registration, len(s.devices))
	for _, d := range s.devices {
		s.deviceReg[d.Node().ID()] = engine.Register(d, sim.WithFaultable())
	}
	for _, b := range s.broadcasters {
		engine.Register(b)
	}
	net.SetWake(engine.Register(net, sim.WithOnDemand()).Wake)
	if s.watch != nil {
		engine.Register(sim.ComponentFunc{ID: "core.watchdog", Fn: s.watch.step})
	}
	engine.Register(radiantMod)
	engine.Register(ventMod)
	engine.Register(sim.ComponentFunc{ID: "core.glue", Fn: s.glue})
	// The room is registered LAST: within a tick everything else (sensors,
	// network, controllers, glue) runs first, then the physics advances.
	engine.Register(room)

	if err := s.plan.Apply(engine.Timeline(), cfg.Start, s.faultTarget()); err != nil {
		return nil, err
	}
	return s, nil
}

// FaultPlan returns the fault plan the system was armed with (nil when
// running fault-free).
func (s *System) FaultPlan() *fault.Plan { return s.plan }

// ApplyFaults schedules the plan's events on the engine timeline with
// offsets relative to base — the live-injection entry point. For
// construction-time plans use WithFaultPlan instead, which also arms the
// degradation watchdog; a live-injected plan does not (arming changes the
// engine's registration order, which must stay a pure function of the
// construction inputs for snapshot restore to rebuild it).
//
//bzlint:mutsetter fleet.Apply
func (s *System) ApplyFaults(base time.Time, plan *fault.Plan) error {
	return plan.Apply(s.engine.Timeline(), base, s.faultTarget())
}

// Engine returns the simulation engine (for scheduling scenario events).
func (s *System) Engine() *sim.Engine { return s.engine }

// Room returns the thermal model.
func (s *System) Room() *thermal.Room { return s.room }

// Network returns the wireless network.
func (s *System) Network() *wsn.Network { return s.net }

// Radiant returns the radiant cooling module.
func (s *System) Radiant() *radiant.Module { return s.radiantMod }

// Vent returns the distributed ventilation module.
func (s *System) Vent() *vent.Module { return s.ventMod }

// RadiantTank returns the 18 °C tank.
func (s *System) RadiantTank() *hydraulic.Tank { return s.radiantTank }

// VentTank returns the 8 °C tank.
func (s *System) VentTank() *hydraulic.Tank { return s.ventTank }

// Devices returns all battery sensor devices (for per-device hooks).
func (s *System) Devices() []*wsn.SensorDevice {
	out := make([]*wsn.SensorDevice, len(s.devices))
	copy(out, s.devices)
	return out
}

// Device returns the sensor device with the given node ID, or nil. The
// lookup is an O(1) map access over the index built in NewSystem.
func (s *System) Device(id wsn.NodeID) *wsn.SensorDevice {
	return s.deviceByID[id]
}

// Recorder returns the trace recorder.
func (s *System) Recorder() *trace.Recorder { return s.rec }

// AttachSniffer installs a packet sniffer on the network, timestamped by
// the simulation clock; w (optional) receives the CSV packet log — the
// paper's analysis methodology.
func (s *System) AttachSniffer(w io.Writer) (*wsn.Sniffer, error) {
	sniffer, err := wsn.NewSniffer(s.engine.Clock().Now, w)
	if err != nil {
		return nil, err
	}
	sniffer.Attach(s.net)
	return sniffer, nil
}

// COPRadiant returns the radiant module's accumulated COP (Bubble-C).
func (s *System) COPRadiant() energy.COP { return s.copRadiant }

// COPVent returns the ventilation module's accumulated COP (Bubble-V).
func (s *System) COPVent() energy.COP { return s.copVent }

// COPTotal returns the whole-system COP (the paper's "BubbleZERO" bar).
func (s *System) COPTotal() energy.COP {
	return energy.Combine(s.copRadiant, s.copVent)
}

// ResetCOP clears the COP accumulators, e.g. after the boot transient.
func (s *System) ResetCOP() {
	s.copRadiant = energy.COP{}
	s.copVent = energy.COP{}
}

// CondensationSeconds returns how long any panel surface has been below
// the local dew point — the failure mode the control decomposition must
// prevent.
func (s *System) CondensationSeconds() float64 { return s.condensationS }

// Run advances the system by d of simulated time.
func (s *System) Run(ctx context.Context, d time.Duration) error {
	return s.engine.RunFor(ctx, d)
}

// Now returns the current simulated time.
func (s *System) Now() time.Time { return s.engine.Clock().Now() }

// OpenDoorAt schedules a door-opening disturbance. The setter runs
// inside a timeline closure at a deterministic simulated instant, which
// is the standalone-system analogue of a journaled event.
//
//bzlint:mutroute fleet.Apply timeline-scheduled: fires at a deterministic simulated instant, standalone systems have no journal
func (s *System) OpenDoorAt(at time.Time, d time.Duration) {
	s.engine.Timeline().At(at, "door-open", func(*sim.Env) { s.room.OpenDoor(d) })
}

// OpenWindowAt schedules a window-opening disturbance.
func (s *System) OpenWindowAt(at time.Time, d time.Duration) {
	s.engine.Timeline().At(at, "window-open", func(*sim.Env) { s.room.OpenWindow(d) })
}

// SetOccupantsAt schedules an occupancy change in a subspace. The
// setter runs inside a timeline closure at a deterministic simulated
// instant, which is the standalone-system analogue of a journaled event.
//
//bzlint:mutroute fleet.Apply timeline-scheduled: fires at a deterministic simulated instant, standalone systems have no journal
func (s *System) SetOccupantsAt(at time.Time, zone thermal.ZoneID, n int) {
	s.engine.Timeline().At(at, "occupancy", func(*sim.Env) { s.room.SetOccupants(zone, n) })
}

// Snapshot is a point-in-time view of the system for examples and logs.
type Snapshot struct {
	Time       time.Time
	ZoneTempC  [thermal.NumZones]float64
	ZoneDewC   [thermal.NumZones]float64
	ZoneCO2PPM [thermal.NumZones]float64
	AvgTempC   float64
	AvgDewC    float64
	// PMV and PPD are the Fanger comfort indices for the average room
	// state, with the mean radiant temperature pulled down by the cooled
	// ceiling panels.
	PMV, PPD      float64
	RadiantTankC  float64
	VentTankC     float64
	COPRadiant    float64
	COPVent       float64
	COPTotal      float64
	NetStats      wsn.Stats
	CondensationS float64
}

// Snapshot captures the current state.
func (s *System) Snapshot() Snapshot {
	snap := Snapshot{
		Time:          s.Now(),
		AvgTempC:      s.room.AverageT(),
		AvgDewC:       s.room.AverageDewPoint(),
		RadiantTankC:  s.radiantTank.Temp(),
		VentTankC:     s.ventTank.Temp(),
		COPRadiant:    s.copRadiant.Value(),
		COPVent:       s.copVent.Value(),
		COPTotal:      s.COPTotal().Value(),
		NetStats:      s.net.Stats(),
		CondensationS: s.condensationS,
	}
	for z := 0; z < thermal.NumZones; z++ {
		zid := thermal.ZoneID(z)
		zone := s.room.Zone(zid)
		snap.ZoneTempC[z] = zone.T
		snap.ZoneDewC[z] = s.room.ZoneDewPoint(zid)
		snap.ZoneCO2PPM[z] = zone.CO2PPM
	}

	// Comfort: the ceiling panels occupy roughly the ceiling's view
	// factor of the occupant, pulling the mean radiant temperature below
	// the air temperature.
	var surfSum float64
	for p := 0; p < radiant.NumPanels; p++ {
		surfSum += s.radiantMod.Loop(p).Result().TSurface
	}
	meanSurf := surfSum / radiant.NumPanels
	const ceilingViewFactor = 0.25
	tr := ceilingViewFactor*meanSurf + (1-ceilingViewFactor)*snap.AvgTempC
	rh := psychro.RHFromHumidityRatio(snap.AvgTempC, s.room.AverageW(), psychro.AtmPressure)
	if pmv, ppd, err := comfort.Assess(comfort.DefaultOffice(snap.AvgTempC, tr, rh)); err == nil {
		snap.PMV = pmv
		snap.PPD = ppd
	}
	return snap
}

// String renders the snapshot compactly.
func (sn Snapshot) String() string {
	return fmt.Sprintf("%s avg %.2f°C dew %.2f°C COP %.2f (C %.2f / V %.2f)",
		sn.Time.Format("15:04:05"), sn.AvgTempC, sn.AvgDewC,
		sn.COPTotal, sn.COPRadiant, sn.COPVent)
}

// glue applies actuator outputs to the plant, steps the tanks, detects
// condensation, accumulates COP, and records traces.
//
//bzlint:hotpath
func (s *System) glue(env *sim.Env) {
	dt := env.Dt()
	outdoor := s.room.Outdoor()

	// Radiant panels → per-zone extraction, with condensation physics.
	var radiantRemovedW float64
	condensing := false
	for p := 0; p < radiant.NumPanels; p++ {
		res := s.radiantMod.Loop(p).Result()
		radiantRemovedW += res.QW
		// The saturation humidity ratio at the panel surface depends only
		// on the (per-panel) surface temperature, so it is computed once
		// per panel, not once per zone — and cached against the exact
		// surface temperature, which sits on a float fixed point once the
		// loop reaches steady state.
		//bzlint:allow floateq exact-key memo; surface temp sits on a float fixed point at steady state
		if m := &s.wSurfMemo[p]; m.tSurf != res.TSurface {
			m.tSurf = res.TSurface
			m.w = psychro.HumidityRatioFromDewPoint(res.TSurface, psychro.AtmPressure)
		}
		wSurf := s.wSurfMemo[p].w
		zs := radiant.PanelZones(p)
		for _, z := range zs {
			zid := thermal.ZoneID(z)
			s.room.SetPanelExtraction(zid, res.QW/2)
			// Condensation: if the panel surface sits below the zone dew
			// point, vapour condenses at a rate set by the air-side film.
			zone := s.room.Zone(zid)
			if zone.W > wSurf && res.TSurface < s.room.ZoneDewPoint(zid) {
				condensing = true
				rate := s.cfg.PanelHAAir / 2 / 1006 * (zone.W - wSurf)
				s.room.SetCondensation(zid, rate)
			} else {
				s.room.SetCondensation(zid, 0)
			}
		}
	}
	if condensing {
		s.condensationS += dt
	}

	// Ventilation boundary conditions, installed through the batch entry so
	// one call refreshes the whole building's supply terms.
	var vents [thermal.NumZones]thermal.VentInput
	for z := 0; z < thermal.NumZones; z++ {
		flow, supply, co2 := s.ventMod.VentInputFor(z)
		vents[z] = thermal.VentInput{VolFlow: flow, Supply: supply, SupplyCO2PPM: co2}
	}
	s.room.SetVentBatch(&vents)

	// Tanks. The room average is computed once per tick and threaded
	// through both tank steps (the COP path below needs no air state).
	avgT := s.room.AverageT()
	s.radiantTank.Step(dt, avgT, outdoor.T)
	s.ventTank.Step(dt, avgT, outdoor.T)

	// COP accounting at the paper's measurement points.
	s.copRadiant.Add(radiantRemovedW,
		s.radiantTank.ChillerElectricalW()+s.radiantMod.PumpPowerW(), dt)
	// The paper's COP measurement boundary covers chillers and pumps; the
	// small DC fans are not behind a power meter (§V: "we also install
	// power meters at major energy consuming devices, including chillers
	// and pumps").
	s.copVent.Add(s.ventMod.CoilLoadW(),
		s.ventTank.ChillerElectricalW()+s.ventMod.CoilPumpPowerW(), dt)

	// Tracing.
	if s.cfg.TracePeriod > 0 {
		s.sinceTrace += dt
		if s.sinceTrace >= s.cfg.TracePeriod.Seconds() {
			s.sinceTrace = 0
			s.recordTrace(env.Now())
		}
	}
}

// recordTrace appends one sample to every traced series through the
// handles opened at construction, reading the room's per-tick derived
// caches (the same exact values the glue and sensors consumed). The path
// is allocation-free per tick apart from amortized slice growth inside
// Series.Append.
func (s *System) recordTrace(now time.Time) {
	for z := 0; z < thermal.NumZones; z++ {
		zid := thermal.ZoneID(z)
		zone := s.room.Zone(zid)
		_ = s.ts.zoneTemp[z].Append(now, zone.T)
		_ = s.ts.zoneDew[z].Append(now, s.room.ZoneDewPoint(zid))
		_ = s.ts.zoneCO2[z].Append(now, zone.CO2PPM)
	}
	_ = s.ts.outdoorTemp.Append(now, s.room.Outdoor().T)
	_ = s.ts.outdoorDew.Append(now, s.room.OutdoorDewPoint())
	_ = s.ts.avgTemp.Append(now, s.room.AverageT())
	_ = s.ts.avgDew.Append(now, s.room.AverageDewPoint())
	_ = s.ts.tankRadiant.Append(now, s.radiantTank.Temp())
	_ = s.ts.tankVent.Append(now, s.ventTank.Temp())
	_ = s.ts.copTotal.Append(now, s.COPTotal().Value())
	if v := s.copRadiant.Value(); !math.IsNaN(v) {
		_ = s.ts.copRadiant.Append(now, v)
	}
	if v := s.copVent.Value(); !math.IsNaN(v) {
		_ = s.ts.copVent.Append(now, v)
	}
}
